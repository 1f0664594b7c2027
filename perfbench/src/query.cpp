// Workload `drilldown`: FlowQL over real TCP to a FlowQLServer with its
// default two workers, running on a partitioned FlowDB — one Coordinator and
// four PartitionServers on LoopbackTransport, partitioned by time. The
// set-up pre-loads 8 routers x 96 one-minute Flowtree summaries (512-node
// budget) through Coordinator::add. Two closed-loop clients then send cold
// statements whose window length (2-64 epochs, log-uniform) and router count
// (1-8) come from low-discrepancy sequences, so every seed has the same cost
// distribution and no cost seam, while a writer appends one epoch for every
// router every 100 ms.
//
// A seeded sample of the answers is checked against run_flowql on a
// single-node FlowDB that holds the same summaries.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "flowdb/executor.hpp"
#include "flowdb/flowdb.hpp"
#include "flowdb/partitioned/coordinator.hpp"
#include "flowdb/partitioned/envelope.hpp"
#include "flowdb/partitioned/partitioner.hpp"
#include "flowdb/partitioned/server.hpp"
#include "net/transport.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/flowgen.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace dist = megads::flowdb::dist;
using megads::TimeInterval;
using megads::flowtree::Flowtree;

constexpr std::size_t kShards = 4;
constexpr std::size_t kRouters = 8;
constexpr std::size_t kSummaryBudget = 512;
/// The index's fold budget. Large enough that no fold compresses: with
/// lossy compression the coordinator's shard-first fold order and a single
/// FlowDB's epoch order keep different nodes, and the gate's byte-identity
/// holds only for exact folds (docs/DISTRIBUTION.md).
constexpr std::size_t kIndexBudget = 1u << 20;
/// Flows per one-minute summary, and active hosts per /16 source network:
/// sized so a summary fills its node budget while the union of a router's
/// epochs grows by well under a budget per epoch (generation stays ~1 s).
constexpr double kFlowsPerSummary = 1536.0;
constexpr std::size_t kHostsPerNetwork = 16;
constexpr std::size_t kDrilldownClients = 2;
constexpr auto kWriteInterval = std::chrono::milliseconds(100);
/// Drilldown answers kept for the gate (the first, then a seeded 1 in 16).
constexpr std::size_t kGateSampleCap = 64;
/// A failed op enters the latency samples as exceeding every limit: 1e9 ms
/// (finite, so percentiles and medians over it stay finite).
constexpr double kFailedMs = 1e9;

struct Sizes {
  std::size_t history_epochs;
  int setups;
};

Sizes sizes(const Options& opts) {
  return opts.smoke ? Sizes{48, 1} : Sizes{96, 5};
}

std::string location(std::size_t router) {
  return "router-" + std::to_string(router);
}

TimeInterval epoch_interval(std::size_t epoch) {
  const auto e = static_cast<std::int64_t>(epoch);
  return TimeInterval{e * megads::kMinute, (e + 1) * megads::kMinute};
}

std::string epoch_range(std::size_t begin, std::size_t end) {
  return range_seconds(static_cast<std::int64_t>(begin) * 60,
                       static_cast<std::int64_t>(end) * 60);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The pre-loaded history: per router, one summary per one-minute epoch.
struct History {
  std::size_t epochs = 0;
  std::vector<std::vector<Flowtree>> trees;       ///< [router][epoch]
  std::vector<megads::flow::Prefix> networks;     ///< [router] top /16
};

History make_history(std::uint64_t seed, std::size_t epochs) {
  History history;
  history.epochs = epochs;
  history.trees.resize(kRouters);
  history.networks.resize(kRouters);
  megads::flowtree::FlowtreeConfig config;
  config.node_budget = kSummaryBudget;
  const auto build = [&](std::size_t router) {
    megads::trace::FlowGenConfig gen_config;
    gen_config.seed = seed;
    gen_config.site = static_cast<std::uint32_t>(router);
    gen_config.flows_per_second = kFlowsPerSummary / 60.0;
    gen_config.hosts_per_network = kHostsPerNetwork;
    megads::trace::FlowGenerator generator(gen_config);
    history.networks[router] = generator.network(0);
    std::vector<megads::primitives::StreamItem> items;
    for (std::size_t e = 0; e < epochs; ++e) {
      items.clear();
      for (const auto& record : generator.generate_for(megads::kMinute)) {
        items.push_back({record.key, static_cast<double>(record.bytes),
                         record.timestamp});
      }
      Flowtree tree(config);
      tree.insert_batch(items);
      history.trees[router].push_back(std::move(tree));
    }
  };
  // Generation only (never timed): at most one thread per CPU, at most 4.
  const std::size_t gen_threads = std::min<std::size_t>(4, cpu_count());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < gen_threads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = t; r < kRouters; r += gen_threads) build(r);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return history;
}

megads::flowtree::FlowtreeConfig index_config() {
  megads::flowtree::FlowtreeConfig config;
  config.node_budget = kIndexBudget;
  return config;
}

/// by-time windows of 1/24 of the history: each shard holds six.
std::size_t partition_epochs(std::size_t history_epochs) {
  return history_epochs / 24;
}

/// Single-node reference holding exactly the pre-loaded summaries.
std::unique_ptr<megads::flowdb::FlowDB> make_reference(const History& history) {
  auto db = std::make_unique<megads::flowdb::FlowDB>(index_config());
  for (std::size_t e = 0; e < history.epochs; ++e) {
    for (std::size_t r = 0; r < kRouters; ++r) {
      db->add(history.trees[r][e], epoch_interval(e), location(r));
    }
  }
  return db;
}

/// Mean bytes one router sends in one epoch (scales `above` thresholds).
double mass_per_router_epoch(const History& history) {
  double total = 0.0;
  for (const auto& router : history.trees) {
    for (const Flowtree& tree : router) total += tree.total_weight();
  }
  return total / static_cast<double>(kRouters * history.epochs);
}

std::string threshold(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", value);
  return buf;
}

/// The set-up's warm-up statements, one pass over the server, planner and
/// shard paths before the measured phase: every operator over the last half
/// partition window of the history, six on one router and two on all eight.
std::vector<std::string> warmup_statements(const History& history) {
  const std::size_t end = history.epochs;
  const std::size_t begin = end - std::max<std::size_t>(1, partition_epochs(end) / 2);
  const std::string from = " FROM " + epoch_range(begin, end);
  const double window_mass =
      mass_per_router_epoch(history) * static_cast<double>(end - begin);
  const auto at = [](std::size_t r) {
    return " WHERE location = '" + location(r) + "'";
  };
  const auto src = [&](std::size_t r, int length) {
    return " AND src = " +
           megads::flow::Prefix(history.networks[r].address(), length).to_string();
  };
  return {
      "SELECT topk(10)" + from + at(0),
      "SELECT hhh(0.05)" + from + at(1),
      "SELECT above(" + threshold(0.02 * window_mass) + ")" + from + at(2),
      "SELECT drilldown" + from + at(3) + src(3, 8),
      "SELECT query" + from + at(4) + src(4, 16),
      "SELECT topk(20)" + from + at(5),
      "SELECT topk(10)" + from,
      "SELECT hhh(0.02)" + from,
  };
}

/// Cold analyst statements. Window length and router count follow Weyl
/// sequences from seeded offsets, so any prefix of the list covers both
/// ranges evenly; operator order is a seeded shuffle of a fixed mix.
std::vector<std::string> drilldown_statements(const History& history,
                                              std::uint64_t seed,
                                              std::size_t count) {
  megads::Rng rng(mix(seed, 0xD1));
  const double golden = 0.6180339887498949;
  const double silver = 0.4142135623730950;
  double u_length = rng.uniform01();
  double u_routers = rng.uniform01();
  const double mass = mass_per_router_epoch(history);
  // 6 topk : 5 hhh : 4 above : 4 drilldown : 1 diff.
  std::vector<int> ops = {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1,
                          2, 2, 2, 2, 3, 3, 3, 3, 4};
  std::vector<std::string> statements;
  statements.reserve(count);
  std::vector<std::size_t> routers(kRouters);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % ops.size() == 0) std::shuffle(ops.begin(), ops.end(), rng);
    const int op = ops[i % ops.size()];
    u_length = std::fmod(u_length + golden, 1.0);
    u_routers = std::fmod(u_routers + silver, 1.0);
    auto length = std::min(
        history.epochs,
        static_cast<std::size_t>(std::lround(2.0 * std::pow(32.0, u_length))));
    const std::size_t k = 1 + static_cast<std::size_t>(u_routers * kRouters);
    for (std::size_t r = 0; r < kRouters; ++r) routers[r] = r;
    std::shuffle(routers.begin(), routers.end(), rng);
    std::sort(routers.begin(), routers.begin() + static_cast<std::ptrdiff_t>(k));
    std::string where;
    for (std::size_t j = 0; j < k; ++j) {
      where += (j == 0 ? " WHERE " : " AND ") + std::string("location = '") +
               location(routers[j]) + "'";
    }
    // diff compares the two halves of its window.
    if (op == 4) length = std::max<std::size_t>(1, length / 2);
    const std::size_t span = op == 4 ? 2 * length : length;
    const std::size_t begin = rng.uniform(history.epochs - span + 1);
    const std::string from = " FROM " + epoch_range(begin, begin + length);
    const double window_mass = mass * static_cast<double>(length * k);
    switch (op) {
      case 0:
        statements.push_back("SELECT topk(10)" + from + where);
        break;
      case 1:
        statements.push_back("SELECT hhh(0.05)" + from + where);
        break;
      case 2:
        statements.push_back("SELECT above(" + threshold(0.02 * window_mass) +
                             ")" + from + where);
        break;
      case 3: {
        const megads::flow::Prefix net = history.networks[routers[0]];
        statements.push_back(
            "SELECT drilldown" + from + where + " AND src = " +
            megads::flow::Prefix(net.address(), 8).to_string());
        break;
      }
      default:
        statements.push_back("SELECT diff(10)" + from + ", " +
                             epoch_range(begin + length, begin + 2 * length) +
                             where);
        break;
    }
  }
  return statements;
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

/// What the traced run attaches: spans, and the program's own registries.
/// One registry per shard FlowDB, because their view-cache gauges share
/// names.
struct Tracing {
  SpanRecorder spans;
  megads::metrics::MetricsRegistry registry;
  std::array<megads::metrics::MetricsRegistry, kShards> shard_db;
};

class Deployment {
 public:
  Deployment(Tracing* tracing, std::size_t history_epochs) {
    if (tracing != nullptr) {
      tracing_transport_ =
          std::make_unique<TracingTransport>(loopback_, tracing->spans);
    }
    megads::net::Transport& net = transport();
    std::vector<megads::NodeId> nodes;
    for (std::size_t i = 0; i < kShards; ++i) {
      const megads::NodeId node(static_cast<std::uint32_t>(i + 1));
      shards_.push_back(
          std::make_unique<dist::PartitionServer>(net, node, index_config()));
      nodes.push_back(node);
    }
    const megads::SimDuration window =
        static_cast<megads::SimDuration>(partition_epochs(history_epochs)) *
        megads::kMinute;
    dist::Coordinator::Options options;
    options.tree_config = index_config();
    coordinator_ = std::make_unique<dist::Coordinator>(
        net, megads::NodeId(0), std::make_unique<dist::TimePartitioner>(window),
        std::move(nodes), options);
    const megads::flowdb::SummarySource* source = coordinator_.get();
    if (tracing != nullptr) {
      tracing_source_ =
          std::make_unique<TracingSource>(*coordinator_, tracing->spans);
      source = tracing_source_.get();
    }
    server_ = std::make_unique<megads::serve::FlowQLServer>(*source);
    if (tracing != nullptr) {
      server_->attach_metrics(tracing->registry);
      coordinator_->attach_metrics(tracing->registry);
      net.attach_metrics(tracing->registry);
      for (std::size_t i = 0; i < kShards; ++i) {
        shards_[i]->attach_metrics(tracing->registry);
        shards_[i]->db().attach_metrics(tracing->shard_db[i]);
      }
    }
    server_->start();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  megads::net::Transport& transport() {
    if (tracing_transport_) return *tracing_transport_;
    return loopback_;
  }

  /// One epoch for every router through Coordinator::add, then flush().
  /// Returns the write's wall time in ms.
  double write_epoch(const History& history, std::size_t source_epoch,
                     std::size_t at_epoch, SpanRecorder* spans) {
    const auto start = Clock::now();
    {
      const SpanRecorder::Scope span(spans, "bench.write");
      for (std::size_t r = 0; r < kRouters; ++r) {
        coordinator_->add(history.trees[r][source_epoch],
                          epoch_interval(at_epoch), location(r));
      }
      coordinator_->flush();
    }
    return ms_between(start, Clock::now());
  }

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] const dist::Coordinator& coordinator() const {
    return *coordinator_;
  }
  [[nodiscard]] const megads::serve::FlowQLServer& server() const {
    return *server_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<dist::PartitionServer>>&
  shards() const {
    return shards_;
  }
  [[nodiscard]] const TracingTransport* tracing_transport() const {
    return tracing_transport_.get();
  }

 private:
  // Declaration order is teardown order reversed: the server stops first,
  // the transport goes last.
  megads::net::LoopbackTransport loopback_;
  std::unique_ptr<TracingTransport> tracing_transport_;
  std::vector<std::unique_ptr<dist::PartitionServer>> shards_;
  std::unique_ptr<dist::Coordinator> coordinator_;
  std::unique_ptr<TracingSource> tracing_source_;
  std::unique_ptr<megads::serve::FlowQLServer> server_;
};

/// Build, pre-load and warm the deployment `setups` times; the median is
/// setup_s and the last deployment is the one measured.
std::unique_ptr<Deployment> set_up(const History& history,
                                   const std::vector<std::string>& warmup,
                                   int setups, Tracing* tracing,
                                   std::vector<double>& setup_s, Report& report) {
  std::unique_ptr<Deployment> deployment;
  SpanRecorder* spans = tracing != nullptr ? &tracing->spans : nullptr;
  for (int i = 0; i < setups; ++i) {
    deployment.reset();
    const auto start = Clock::now();
    deployment = std::make_unique<Deployment>(tracing, history.epochs);
    for (std::size_t e = 0; e < history.epochs; ++e) {
      (void)deployment->write_epoch(history, e, e, spans);
    }
    megads::serve::Client client("127.0.0.1", deployment->port());
    for (const std::string& statement : warmup) {
      const auto result = client.query(statement);
      if (!result.ok) report.fail_gate("warm-up query failed: " + result.message);
    }
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }
  return deployment;
}

// ---------------------------------------------------------------------------
// Layer accounting for the traced run
// ---------------------------------------------------------------------------

/// Cumulative layer counters; the measured phase reports end minus start.
struct LayerCounters {
  megads::metrics::Snapshot registry;
  std::array<megads::metrics::Snapshot, kShards> shard_db;
  megads::serve::FlowQLServer::Stats serve;
  megads::flowdb::plan::QueryPlanner::Stats plan;
  std::uint64_t remote_shards = 0;
  std::uint64_t pruned = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t messages = 0;
  std::uint64_t response_bytes = 0;

  static LayerCounters read(const Deployment& d, const Tracing& tracing) {
    LayerCounters c;
    c.registry = tracing.registry.snapshot();
    for (std::size_t i = 0; i < kShards; ++i) {
      c.shard_db[i] = tracing.shard_db[i].snapshot();
      c.memo_hits += d.shards()[i]->response_memo_hits();
      c.memo_misses += d.shards()[i]->response_memo_misses();
    }
    c.serve = d.server().stats();
    c.plan = d.server().planner().stats();
    c.remote_shards = d.coordinator().remote_shard_queries();
    c.pruned = d.coordinator().fanout_pruned_shards();
    c.messages = d.tracing_transport()->stats().messages;
    c.response_bytes = d.tracing_transport()->payload_bytes(
        static_cast<std::size_t>(dist::MessageType::kQueryResponse));
    return c;
  }
};

double histogram_mean_delta(const megads::metrics::Snapshot& before,
                            const megads::metrics::Snapshot& after,
                            const std::string& name) {
  const auto* b = before.find(name);
  const auto* a = after.find(name);
  if (a == nullptr) return 0.0;
  const double count = static_cast<double>(a->count - (b ? b->count : 0));
  return count > 0 ? (a->sum - (b ? b->sum : 0.0)) / count : 0.0;
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

/// Per-layer metrics of the layers drilldown does not load: reported as 0,
/// so that a metric the traced run fails to emit is an error in run.py.
constexpr std::pair<const char*, const char*> kNotLoaded[] = {
    {"flowstream.ingest_us_per_kflow", "us"},
    {"flowstream.export_ms_per_epoch", "ms"},
    {"store.compressions_per_kflow", "count"},
    {"store.seals", "count"},
    {"net.wan_bytes_per_export", "B"},
};

/// The per-layer metrics of the measured phase.
void report_layers(Report& report, const Deployment& d, const Tracing& tracing,
                   const LayerCounters& before,
                   const SpanRecorder::Totals& setup_adds, double queries,
                   double client_mean_ms) {
  const LayerCounters after = LayerCounters::read(d, tracing);
  auto spans = tracing.spans.totals();
  const double q = std::max(queries, 1.0);

  const double service_us = histogram_mean_delta(before.registry, after.registry,
                                                 "serve.sched.service_us");
  report.metric("serve.queue_wait_us_mean",
                histogram_mean_delta(before.registry, after.registry,
                                     "serve.sched.queue_wait_us"),
                "us");
  report.metric("serve.service_us_mean", service_us, "us");
  report.metric("serve.overhead_us_mean", client_mean_ms * 1e3 - service_us, "us");
  report.metric("serve.bytes_out_per_query",
                static_cast<double>(after.serve.bytes_out - before.serve.bytes_out) / q,
                "B");
  const auto shed = [](const megads::serve::FlowQLServer::Stats& s) {
    return s.sched.shed_queue + s.sched.shed_deadline + s.sched.expired;
  };
  report.metric("serve.shed", static_cast<double>(shed(after.serve) - shed(before.serve)),
                "count");

  const SpanRecorder::Totals& probe = spans["plan.probe"];
  const double planned = static_cast<double>(after.plan.planned - before.plan.planned);
  report.metric("plan.probe_us_mean", ratio(probe.total_us, static_cast<double>(probe.count)),
                "us");
  report.metric("plan.shared_ratio",
                ratio(static_cast<double>(after.plan.shared_folds - before.plan.shared_folds),
                      planned),
                "ratio");
  report.metric("plan.read_only_ratio",
                ratio(static_cast<double>(after.plan.read_only_folds -
                                          before.plan.read_only_folds),
                      planned),
                "ratio");
  report.metric("plan.fallbacks",
                static_cast<double>(after.plan.fallbacks - before.plan.fallbacks),
                "count");

  report.metric("coord.fold_us_mean", spans["coord.merged"].self_us / q, "us");
  report.metric("coord.shards_per_query",
                static_cast<double>(after.remote_shards - before.remote_shards) / q,
                "count");
  report.metric("coord.pruned_per_query",
                static_cast<double>(after.pruned - before.pruned) / q, "count");
  std::uint64_t dropped = d.coordinator().dropped_messages();
  for (const auto& shard : d.shards()) dropped += shard->dropped_messages();
  report.metric("coord.dropped", static_cast<double>(dropped), "count");

  const SpanRecorder::Totals& shard_query = spans["shard.query"];
  const SpanRecorder::Totals& adds = spans["shard.add"];
  report.metric("shard.query_us_mean",
                ratio(shard_query.self_us, static_cast<double>(shard_query.count)),
                "us");
  report.metric("shard.add_us_mean",
                ratio(adds.self_us + setup_adds.self_us,
                      static_cast<double>(adds.count + setup_adds.count)),
                "us");
  report.metric("shard.memo_hit_ratio",
                ratio(static_cast<double>(after.memo_hits - before.memo_hits),
                      static_cast<double>(after.memo_hits - before.memo_hits +
                                          after.memo_misses - before.memo_misses)),
                "ratio");

  double view_hits = 0.0;
  double view_lookups = 0.0;
  double view_bytes = 0.0;
  double decode_hits = 0.0;
  double decode_lookups = 0.0;
  double memory = 0.0;
  double summaries = 0.0;
  for (std::size_t i = 0; i < kShards; ++i) {
    const auto delta = [&](const std::string& name) {
      return after.shard_db[i].value(name) - before.shard_db[i].value(name);
    };
    view_hits += delta("flowdb.view_cache_hits");
    view_lookups += delta("flowdb.view_cache_hits") + delta("flowdb.view_cache_misses");
    decode_hits += delta("flowdb.decode_hits");
    decode_lookups += delta("flowdb.decode_hits") + delta("flowdb.decode_misses");
    view_bytes += after.shard_db[i].value("flowdb.view_cache_bytes");
    memory += static_cast<double>(d.shards()[i]->db().memory_bytes());
    summaries += static_cast<double>(d.shards()[i]->db().summary_count());
  }
  report.metric("flowdb.view_cache_hit_ratio", ratio(view_hits, view_lookups), "ratio");
  report.metric("flowdb.view_cache_mb", view_bytes / 1e6, "MB");
  report.metric("flowdb.decode_hit_ratio", ratio(decode_hits, decode_lookups), "ratio");
  report.metric("flowdb.memory_mb", memory / 1e6, "MB");
  report.metric("flowdb.summaries_indexed", summaries, "count");

  report.metric("net.messages_per_query",
                static_cast<double>(after.messages - before.messages) / q, "count");
  report.metric("net.response_bytes_per_query",
                static_cast<double>(after.response_bytes - before.response_bytes) / q,
                "B");
  for (const auto& [name, unit] : kNotLoaded) report.metric(name, 0.0, unit);
}

}  // namespace

Report run_drilldown(const Options& opts) {
  const Sizes size = sizes(opts);
  Report report;
  const History history = make_history(opts.seed, size.history_epochs);
  const auto reference = make_reference(history);
  const std::vector<std::string> statements =
      drilldown_statements(history, opts.seed, 20000);

  auto tracing = opts.trace ? std::make_unique<Tracing>() : nullptr;
  SpanRecorder* spans = tracing ? &tracing->spans : nullptr;
  std::vector<double> setup_s;
  const auto d = set_up(history, warmup_statements(history), size.setups,
                        tracing.get(), setup_s, report);
  // The traced run sets the set-up's spans aside (keeping its shard adds for
  // shard.add_us_mean) and reports the measured phase's counter deltas.
  SpanRecorder::Totals setup_adds;
  LayerCounters before;
  if (tracing) {
    setup_adds = tracing->spans.totals()["shard.add"];
    tracing->spans.clear();
    before = LayerCounters::read(*d, *tracing);
  }
  const std::uint64_t wire_before = d->transport().stats().payload_bytes;

  struct ClientRun {
    std::vector<std::pair<Clock::time_point, double>> latency;  ///< (done, ms)
    double answered_ms = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::size_t, std::string>> sampled;
  };
  std::vector<ClientRun> clients(kDrilldownClients);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop_writer{false};
  Samples writes;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(opts.seconds);
  // The first statement always, so the gate is never empty; then 1 in 16.
  const auto sampled = [&](std::size_t i) {
    return i == 0 || mix(opts.seed, i) % 16 == 0;
  };

  std::exception_ptr writer_error;
  std::thread writer([&] {
    try {
      std::size_t k = 0;
      auto when = start;
      while (!stop_writer.load()) {
        when += kWriteInterval;
        std::this_thread::sleep_until(when);
        if (stop_writer.load()) break;
        writes.add(
            d->write_epoch(history, k % history.epochs, history.epochs + k, spans));
        ++k;
      }
    } catch (...) {
      writer_error = std::current_exception();
    }
  });
  std::vector<std::thread> threads;
  for (ClientRun& client_run : clients) {
    threads.emplace_back([&, &run = client_run] {
      const auto fail = [&] {
        run.latency.emplace_back(Clock::now(), kFailedMs);
        ++run.failed;
      };
      std::optional<megads::serve::Client> client;
      try {
        client.emplace("127.0.0.1", d->port());
      } catch (const std::exception&) {
        ++run.attempted;
        fail();
        return;
      }
      while (Clock::now() < deadline) {
        const std::size_t i = next.fetch_add(1);
        const std::string& statement = statements[i % statements.size()];
        ++run.attempted;
        const auto sent = Clock::now();
        megads::serve::Client::Result result;
        try {
          result = client->query(statement);
        } catch (const std::exception&) {
          fail();  // lost connection: this op and the rest of this client
          return;
        }
        if (!result.ok) {
          fail();  // kOverload, kError, ...
          continue;
        }
        const auto done = Clock::now();
        const double ms = ms_between(sent, done);
        run.latency.emplace_back(done, ms);
        run.answered_ms += ms;
        ++run.completed;
        if (sampled(i) && run.sampled.size() < kGateSampleCap / kDrilldownClients) {
          run.sampled.emplace_back(i, std::move(result.text));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed_s = ms_between(start, Clock::now()) / 1e3;
  stop_writer.store(true);
  writer.join();
  if (writer_error) std::rethrow_exception(writer_error);
  const double rss_mb = peak_rss_mb();

  std::vector<std::pair<Clock::time_point, double>> timed;
  std::uint64_t completed = 0;
  double answered_ms = 0.0;
  for (const ClientRun& run : clients) {
    timed.insert(timed.end(), run.latency.begin(), run.latency.end());
    answered_ms += run.answered_ms;
    report.attempted += run.attempted;
    report.failed += run.failed;
    completed += run.completed;
  }
  std::sort(timed.begin(), timed.end());
  Samples latency;
  for (const auto& sample : timed) latency.add(sample.second);

  // Gate, outside the timed phase: the sampled answers against run_flowql on
  // the single-node reference. A mismatch is a failed op as well.
  std::size_t checked = 0;
  for (const ClientRun& run : clients) {
    for (const auto& [index, text] : run.sampled) {
      std::string expect =
          megads::flowdb::run_flowql(statements[index % statements.size()], *reference)
              .to_string();
      if (opts.corrupt_reference && checked == 0) expect += "corrupted";
      ++checked;
      if (text != expect) {
        ++report.failed;
        report.fail_gate("drilldown statement " + std::to_string(index) +
                         " differs from the single-node reference: " +
                         statements[index % statements.size()]);
      }
    }
  }
  if (checked == 0) report.fail_gate("no drilldown answer was sampled for the gate");

  const std::uint64_t wire_bytes = d->transport().stats().payload_bytes - wire_before;
  report.metric("setup_s", median(setup_s), "s");
  report.metric("ops_per_s", static_cast<double>(completed) / elapsed_s, "1/s");
  report.metric("latency_p50_ms", latency.sliced_percentile(0.50), "ms");
  report.metric("latency_p99_ms", latency.sliced_percentile(0.99), "ms");
  report.metric("write_p50_ms", writes.sliced_percentile(0.50), "ms");
  report.metric("wire_bytes_per_op",
                static_cast<double>(wire_bytes) /
                    static_cast<double>(std::max<std::uint64_t>(completed, 1)),
                "B");
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.metric("error_ratio", error_ratio(report.attempted, report.failed), "ratio");
  report.info("samples", static_cast<double>(latency.size()));
  report.info("write_samples", static_cast<double>(writes.size()));
  report.info("gate_checked", static_cast<double>(checked));
  report.info("statements_issued", static_cast<double>(next.load()));
  report.info("connections", static_cast<double>(kDrilldownClients));
  report.info("threads", static_cast<double>(kDrilldownClients + 1));

  if (tracing) {
    report_layers(
        report, *d, *tracing, before, setup_adds, static_cast<double>(completed),
        answered_ms / static_cast<double>(std::max<std::uint64_t>(completed, 1)));
    report.info("spans", static_cast<double>(tracing->spans.size()));
    if (!opts.spans_path.empty() && !tracing->spans.write_jsonl(opts.spans_path)) {
      throw std::runtime_error("cannot write spans to " + opts.spans_path);
    }
  }
  return report;
}

}  // namespace perfbench
