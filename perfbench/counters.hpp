// The one place the benchmark reads library counters and statistics:
// core::Profiler, serve::ServingReport and dse::ExplorationStats.  Every
// value comes out under the per-layer metric name it is reported as, so a
// change to how the library exposes its counters touches only this file and
// counters.cpp.
#pragma once

#include <map>
#include <string>

#include "common.hpp"
#include "dse/engine.hpp"
#include "serve/loop.hpp"

namespace perfbench {

using Counters = std::map<std::string, double>;

/// Snapshot of the process-wide library counters.
Counters read_profiler();

/// after - before, key by key.
Counters counter_delta(const Counters& after, const Counters& before);

/// into[k] += add[k] for every key of `add`.
void accumulate(Counters& into, const Counters& add);

/// The serving outputs the benchmark checks against its reference: report
/// counts, the floor verdict, accuracy and the virtual latency percentiles.
/// The report checksum rides along unchecked.
Fields serving_outputs(const xlds::serve::ServingReport& report);

/// Per-job DSE accounting: evaluations computed or served, cache and journal
/// traffic, and lane-busy seconds per physics tier.
Counters exploration_counters(const xlds::dse::ExplorationStats& stats);

}  // namespace perfbench
