// perfbench — one workload per process. Prints one JSON object (metrics, op
// ledger, gate verdict, run facts) as the last line of standard output;
// perfbench/run.py builds this binary and turns that line into the result.
//
//   perfbench --workload ingest|drilldown --seed N --seconds S
//             [--trace] [--spans PATH] [--smoke] [--corrupt-reference]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest|drilldown --seed N --seconds S [--trace] "
               "[--spans PATH] [--smoke] [--corrupt-reference]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--spans") {
      opts.spans_path = value();
    } else if (arg == "--trace") {
      opts.trace = true;
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--corrupt-reference") {
      opts.corrupt_reference = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = parse(argc, argv);
  try {
    perfbench::Report report;
    if (opts.workload == "ingest") {
      report = perfbench::run_ingest(opts);
    } else if (opts.workload == "drilldown") {
      report = perfbench::run_drilldown(opts);
    } else {
      usage(("unknown workload '" + opts.workload + "'").c_str());
    }
    report.info("compiler", PERFBENCH_COMPILER);
    report.info("build_type", PERFBENCH_BUILD_TYPE);
    std::printf("%s\n", report.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
}
