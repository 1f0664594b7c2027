// The perfbench workloads. Each runs in its own process, builds its inputs
// from Options::seed, and drives the program only through public entry
// points. See WORKLOADS.md for the record of each.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Flowstream::ingest_batch + Simulator::run_until, one thread, closed loop.
[[nodiscard]] Report run_ingest(const Options& opts);

/// FlowQL over TCP, closed loop: cold ad-hoc statements while a writer
/// appends epochs.
[[nodiscard]] Report run_drilldown(const Options& opts);

}  // namespace perfbench
