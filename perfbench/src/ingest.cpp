// Workload `ingest`: the paper's Fig. 5 write path on one thread.
//
// 2 regions x 3 routers, each fed about 2,500 flows per virtual second in
// 20 ms ticks; 1 s epochs against a 512-node router budget put about five
// flows on every node of an epoch's summary. A tick hands every router its
// batch (Flowstream::ingest_batch) and then runs the simulator to the end of
// the tick (Simulator::run_until), which is where epochs seal and export:
// FTRE encode, WAN delivery, the region absorb, FlowDB::add_encoded. The
// tick is the latency sample; flow generation happens between ticks and is
// never timed.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/metrics.hpp"
#include "flowstream/flowstream.hpp"
#include "sim/simulator.hpp"
#include "trace/flowgen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using megads::SimDuration;
using megads::SimTime;
using megads::flow::FlowRecord;

constexpr std::size_t kRegions = 2;
constexpr std::size_t kRoutersPerRegion = 3;
constexpr std::size_t kRouters = kRegions * kRoutersPerRegion;
constexpr SimDuration kEpoch = megads::kSecond;
constexpr SimDuration kTick = 20 * megads::kMillisecond;
constexpr double kFlowsPerRouterSecond = 2500.0;
constexpr std::size_t kRouterBudget = 512;
/// Round-robin router storage: about eight sealed epochs, so the warm-up
/// prefix below reaches eviction.
constexpr std::uint64_t kRouterStorageBytes = 512u << 10;

struct Sizes {
  int warmup_epochs;
  int setups;
  /// Measured epochs after which peak_rss_mb and flowdb.memory_mb are read.
  /// The cloud FlowDB keeps every summary, so memory grows with the epochs
  /// ingested; a fixed point makes the figures memory per unit of work, not a
  /// shadow of throughput.
  int rss_epochs;
};

Sizes sizes(const Options& opts) {
  return opts.smoke ? Sizes{12, 1, 8} : Sizes{12, 3, 160};
}

/// Per-layer metrics of the layers ingest does not load: reported as 0, so
/// that a metric the traced run fails to emit is an error in run.py.
constexpr std::pair<const char*, const char*> kNotLoaded[] = {
    {"serve.queue_wait_us_mean", "us"},   {"serve.service_us_mean", "us"},
    {"serve.overhead_us_mean", "us"},     {"serve.bytes_out_per_query", "B"},
    {"serve.shed", "count"},              {"plan.probe_us_mean", "us"},
    {"plan.shared_ratio", "ratio"},       {"plan.read_only_ratio", "ratio"},
    {"plan.fallbacks", "count"},          {"coord.fold_us_mean", "us"},
    {"coord.shards_per_query", "count"},  {"coord.pruned_per_query", "count"},
    {"coord.dropped", "count"},           {"shard.query_us_mean", "us"},
    {"shard.add_us_mean", "us"},          {"shard.memo_hit_ratio", "ratio"},
    {"flowdb.view_cache_hit_ratio", "ratio"}, {"flowdb.view_cache_mb", "MB"},
    {"net.messages_per_query", "count"},  {"net.response_bytes_per_query", "B"},
};

using TickBatches = std::array<std::vector<FlowRecord>, kRouters>;

/// What the generators produced for one epoch, over all routers.
struct EpochInput {
  double bytes = 0.0;
  std::uint64_t flows = 0;
};

std::vector<megads::trace::FlowGenerator> make_generators(std::uint64_t seed) {
  std::vector<megads::trace::FlowGenerator> generators;
  for (std::size_t site = 0; site < kRouters; ++site) {
    megads::trace::FlowGenConfig config;
    config.seed = seed;  // one seed: sites share networks, ranking rotates
    config.site = static_cast<std::uint32_t>(site);
    config.flows_per_second = kFlowsPerRouterSecond;
    generators.emplace_back(config);
  }
  return generators;
}

/// Next tick of input for every router; adds it to its epoch's `input`.
TickBatches next_tick(std::vector<megads::trace::FlowGenerator>& generators,
                      EpochInput& input) {
  TickBatches batches;
  for (std::size_t r = 0; r < kRouters; ++r) {
    batches[r] = generators[r].generate_for(kTick);
    for (const FlowRecord& record : batches[r]) {
      input.bytes += static_cast<double>(record.bytes);
    }
    input.flows += batches[r].size();
  }
  return batches;
}

struct Deployment {
  explicit Deployment(megads::metrics::MetricsRegistry* registry) {
    megads::flowstream::FlowstreamConfig config;
    config.regions = kRegions;
    config.routers_per_region = kRoutersPerRegion;
    config.epoch = kEpoch;
    config.router_budget = kRouterBudget;
    config.router_storage_bytes = kRouterStorageBytes;
    config.ingest_sampling = 1.0;
    system = std::make_unique<megads::flowstream::Flowstream>(sim, config);
    if (registry != nullptr) system->attach_metrics(*registry);
    system->start();
  }
  // The Flowstream holds the simulator's address.
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// One tick: every router's batch, then the pipeline work it triggers.
  /// Returns the tick's wall time in ms.
  double tick(const TickBatches& batches, SpanRecorder* spans) {
    const auto start = Clock::now();
    {
      const SpanRecorder::Scope tick_span(spans, "bench.tick");
      for (std::size_t r = 0; r < kRouters; ++r) {
        const SpanRecorder::Scope span(spans, "flowstream.ingest_batch");
        system->ingest_batch(r / kRoutersPerRegion, r % kRoutersPerRegion,
                             batches[r]);
      }
      now += kTick;
      const SpanRecorder::Scope span(spans, "sim.run_until");
      sim.run_until(now);
    }
    return ms_between(start, Clock::now());
  }

  /// True once every router's round-robin storage has evicted its oldest
  /// sealed epoch.
  [[nodiscard]] bool evicting() {
    for (std::size_t r = 0; r < kRouters; ++r) {
      const std::size_t region = r / kRoutersPerRegion;
      const std::size_t router = r % kRoutersPerRegion;
      const auto& parts = system->router_store(region, router)
                              .partitions(system->router_slot(region, router));
      if (parts.empty() || parts.front().interval.begin == 0) return false;
    }
    return true;
  }

  megads::sim::Simulator sim;
  std::unique_ptr<megads::flowstream::Flowstream> system;
  SimTime now = 0;
};

std::uint64_t sum_counters(const megads::metrics::Snapshot& snapshot,
                           const std::string& prefix,
                           const std::string& suffix) {
  double total = 0.0;
  for (const auto& entry : snapshot.entries) {
    if (entry.name.rfind(prefix, 0) == 0 && entry.name.size() >= suffix.size() &&
        entry.name.compare(entry.name.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
      total += entry.value;
    }
  }
  return static_cast<std::uint64_t>(total);
}

}  // namespace

Report run_ingest(const Options& opts) {
  const Sizes size = sizes(opts);
  Report report;
  SpanRecorder spans;
  SpanRecorder* tracer = opts.trace ? &spans : nullptr;
  megads::metrics::MetricsRegistry registry;

  // Trace generation: ticks are generated in order, each into its epoch's
  // ledger; the warm-up prefix once, replayed by every setup.
  auto generators = make_generators(opts.seed);
  std::vector<EpochInput> generated;  ///< [epoch]
  const auto generate = [&](SimTime tick_start) {
    const auto epoch = static_cast<std::size_t>(tick_start / kEpoch);
    if (generated.size() <= epoch) generated.resize(epoch + 1);
    return next_tick(generators, generated[epoch]);
  };
  std::vector<TickBatches> warmup;
  const SimTime warmup_end = size.warmup_epochs * kEpoch;
  for (SimTime t = 0; t < warmup_end; t += kTick) warmup.push_back(generate(t));

  // Setup: build, pre-load until storage evicts. Several times; the median
  // is setup_s and the last deployment is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (int i = 0; i < size.setups; ++i) {
    deployment.reset();
    const auto start = Clock::now();
    deployment = std::make_unique<Deployment>(opts.trace ? &registry : nullptr);
    for (const TickBatches& batches : warmup) (void)deployment->tick(batches, nullptr);
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    if (!deployment->evicting()) {
      report.fail_gate("warm-up ended before router storage began evicting");
    }
  }
  Deployment& d = *deployment;
  const megads::metrics::Snapshot before = registry.snapshot();
  const std::uint64_t indexed_before = d.system->summaries_indexed();

  // Measured phase: closed loop, one tick after another until the deadline.
  Samples ticks;
  Samples boundary_ticks;
  double busy_ms = 0.0;
  std::uint64_t measured_flows = 0;
  const SimTime rss_at = warmup_end + size.rss_epochs * kEpoch;
  double rss_mb = 0.0;
  double db_mb = 0.0;
  const auto read_memory = [&] {
    rss_mb = peak_rss_mb();
    db_mb = static_cast<double>(d.system->db().memory_bytes()) / 1e6;
  };
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opts.seconds);
  while (Clock::now() < deadline) {
    const TickBatches batches = generate(d.now);
    for (const auto& batch : batches) measured_flows += batch.size();
    const bool boundary = (d.now + kTick) % kEpoch == 0;
    const double ms = d.tick(batches, tracer);
    ticks.add(ms);
    if (boundary) boundary_ticks.add(ms);
    busy_ms += ms;
    if (d.now == rss_at) read_memory();
  }
  const std::uint64_t measured_ticks = ticks.size();
  const megads::metrics::Snapshot after = registry.snapshot();
  const std::uint64_t indexed_measured =
      d.system->summaries_indexed() - indexed_before;

  // A host too slow to reach the memory point inside the run does the rest
  // of that fixed work untimed.
  if (d.now < rss_at) {
    while (d.now < rss_at) (void)d.tick(generate(d.now), nullptr);
    read_memory();
  }

  // Drain: seal and export the last epoch, deliver everything in flight.
  const SimTime last_epoch_end = (d.now + kEpoch - 1) / kEpoch * kEpoch;
  d.sim.run_until(last_epoch_end + kEpoch);

  // Gate: one summary per router and epoch; every epoch after the warm-up
  // holds exactly the bytes generated for it, and its flows count as failed
  // ops when it does not; SELECT query over the whole run equals the
  // generated total.
  if (opts.corrupt_reference) generated.back().bytes *= 1.001;
  const auto epochs = static_cast<std::uint64_t>(last_epoch_end / kEpoch);
  const std::uint64_t indexed = d.system->summaries_indexed();
  if (indexed != kRouters * epochs) {
    report.fail_gate("summaries indexed " + std::to_string(indexed) +
                     " != routers x epochs " +
                     std::to_string(kRouters * epochs));
  }
  double expected_bytes = 0.0;
  std::uint64_t flows = 0;
  std::size_t bad_epochs = 0;
  for (std::size_t e = 0; e < generated.size(); ++e) {
    expected_bytes += generated[e].bytes;
    flows += generated[e].flows;
    if (e < static_cast<std::size_t>(size.warmup_epochs)) continue;
    report.attempted += generated[e].flows;
    const SimTime begin = static_cast<SimTime>(e) * kEpoch;
    const double stored =
        d.system->db().merged({megads::TimeInterval{begin, begin + kEpoch}}, {})
            .total_weight();
    if (std::fabs(stored - generated[e].bytes) > 1e-9 * generated[e].bytes) {
      report.failed += generated[e].flows;
      ++bad_epochs;
    }
  }
  if (bad_epochs > 0) {
    report.fail_gate(std::to_string(bad_epochs) +
                     " epochs hold other bytes than were generated for them");
  }
  const megads::flowdb::Table table =
      d.system->query("SELECT query FROM " +
                      range_seconds(0, last_epoch_end / megads::kSecond));
  char expected_text[32];
  std::snprintf(expected_text, sizeof(expected_text), "%.6g", expected_bytes);
  if (table.rows.size() != 1 || table.rows[0].size() != 2 ||
      table.rows[0][1] != expected_text) {
    report.fail_gate("SELECT query total " +
                     (table.rows.empty() ? std::string("<empty>")
                                         : table.rows[0].back()) +
                     " != generated bytes " + expected_text);
  }

  const double wan_bytes =
      static_cast<double>(d.system->network().stats().payload_bytes);
  report.metric("setup_s", median(setup_s), "s");
  report.metric("ops_per_s", static_cast<double>(measured_flows) / (busy_ms / 1e3),
                "1/s");
  report.metric("latency_p50_ms", ticks.sliced_percentile(0.50), "ms");
  report.metric("latency_p99_ms", ticks.sliced_percentile(0.99), "ms");
  report.metric("write_p50_ms", boundary_ticks.sliced_percentile(0.50), "ms");
  report.metric("wire_bytes_per_op", wan_bytes / static_cast<double>(flows), "B");
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.metric("error_ratio", error_ratio(report.attempted, report.failed),
                "ratio");
  report.info("samples", static_cast<double>(measured_ticks));
  report.info("write_samples", static_cast<double>(boundary_ticks.size()));
  report.info("flows_total", static_cast<double>(flows));
  report.info("generated_bytes", expected_bytes);
  report.info("epochs_exported", static_cast<double>(epochs));
  report.info("rss_epochs", static_cast<double>(size.rss_epochs));
  report.info("threads", 1.0);

  if (opts.trace) {
    auto totals = spans.totals();
    const auto kflows = static_cast<double>(measured_flows) / 1e3;
    const double epochs_measured =
        static_cast<double>(indexed_measured) / static_cast<double>(kRouters);
    const double exports =
        after.value("flowstream.exports") - before.value("flowstream.exports");
    const double decode_hits =
        after.value("flowdb.decode_hits") - before.value("flowdb.decode_hits");
    const double decode_misses = after.value("flowdb.decode_misses") -
                                 before.value("flowdb.decode_misses");
    const auto counter_delta = [&](const std::string& suffix) {
      return static_cast<double>(sum_counters(after, "store.router-", suffix) -
                                 sum_counters(before, "store.router-", suffix));
    };
    report.metric("flowstream.ingest_us_per_kflow",
                  totals["flowstream.ingest_batch"].total_us / kflows, "us");
    report.metric("flowstream.export_ms_per_epoch",
                  totals["sim.run_until"].total_us / 1e3 /
                      std::max(epochs_measured, 1.0),
                  "ms");
    report.metric("store.compressions_per_kflow",
                  counter_delta(".compress_count") / kflows, "count");
    report.metric("store.seals", counter_delta(".seal_count"), "count");
    report.metric("flowdb.decode_hit_ratio",
                  decode_hits / std::max(decode_hits + decode_misses, 1.0),
                  "ratio");
    report.metric("flowdb.summaries_indexed",
                  static_cast<double>(indexed_measured), "count");
    report.metric("flowdb.memory_mb", db_mb, "MB");
    report.metric("net.wan_bytes_per_export",
                  (after.value("net.payload_bytes") -
                   before.value("net.payload_bytes")) /
                      std::max(exports, 1.0),
                  "B");
    for (const auto& [name, unit] : kNotLoaded) report.metric(name, 0.0, unit);
    if (!opts.spans_path.empty() && !spans.write_jsonl(opts.spans_path)) {
      throw std::runtime_error("cannot write spans to " + opts.spans_path);
    }
    report.info("spans", static_cast<double>(spans.size()));
  }
  return report;
}

}  // namespace perfbench
