// Shared plumbing of the perfbench workloads: options, latency samples, the
// result record a workload process reports, and the span recorder behind the
// traced run (see WORKLOADS.md for what each workload measures and why).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics from decorators and registries, plus the
  /// traced-minus-untraced overhead of every end-to-end metric.
  bool trace = false;
  /// Reduced sizes that finish in seconds (the self-test).
  bool smoke = false;
  /// Test hook: corrupt one reference answer so the gate must fail.
  bool corrupt_reference = false;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// Latency samples in milliseconds.
class Samples {
 public:
  void add(double ms) { values_.push_back(ms); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  /// Linear-interpolated percentile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  /// The reported latency percentile: percentile q of each of k equal
  /// consecutive slices of the samples (in arrival order), median over the
  /// slices. k is the largest count up to 5 whose slices each hold at least
  /// 1,000 samples, so a slice's p99 has ten samples beyond it. A host stall
  /// of a second or two then moves one slice's figure, not the reported one.
  [[nodiscard]] double sliced_percentile(double q) const;

 private:
  std::vector<double> values_;
};

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Failed ops over attempted ops, plus a floor of 1e-9 so that the figure is
/// never 0. The floor is far below 1 / attempted for any run, so a clean run
/// reads the same on every commit and host, and one failed op raises it by
/// orders of magnitude.
[[nodiscard]] double error_ratio(std::uint64_t attempted, std::uint64_t failed);

/// CPUs this process may run on (its affinity mask), at least 1.
[[nodiscard]] std::size_t cpu_count();

/// What one workload process reports. run.py turns it into the final line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  /// Record a correctness-gate failure (the run then reports correct=false).
  void fail_gate(const std::string& why);

  [[nodiscard]] bool correct() const noexcept { return gate_failures_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// One JSON object: correct, attempted, failed, metrics, info, gate.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> gate_failures_;
};

/// In-memory span log for the traced run. A span records a name, start, end
/// and the span that was open on the same thread when it began (its parent:
/// the in-process transport dispatches synchronously, so a shard handler
/// nests inside the coordinator call that sent to it). Spans stay in memory
/// and are written once, when the run ends.
class SpanRecorder {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    const char* name = "";     ///< static string
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    Span span_;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;  ///< total minus the time of nested spans
  };

  /// Per span name.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Write every span as one JSON line; false on I/O failure.
  bool write_jsonl(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;
  /// Forget every span recorded so far (the set-up's, before measuring).
  void clear();

 private:
  void record(const Span& span);

  std::atomic<std::uint64_t> next_id_{1};
  mutable megads::Mutex mu_{megads::lockrank::kLeaf, "perfbench.spans"};
  std::vector<Span> spans_ MEGADS_GUARDED_BY(mu_);
};

/// Statement of a FlowQL range in whole seconds: "<a>s..<b>s".
[[nodiscard]] std::string range_seconds(std::int64_t begin_s, std::int64_t end_s);

}  // namespace perfbench
