#include "counters.hpp"

#include "core/counters.hpp"

namespace perfbench {

using xlds::core::Profiler;

Counters read_profiler() {
  const Profiler::NodalCounts n = Profiler::nodal();
  const Profiler::ServeCounts s = Profiler::serve();
  const Profiler::SchedCounts u = Profiler::sched();
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"xbar.factorizations", d(n.factorizations)},
      {"xbar.direct_solves", d(n.direct_solves)},
      {"xbar.gs_solves", d(n.gs_solves)},
      {"xbar.incremental_updates", d(n.incremental_updates)},
      {"xbar.updated_cells", d(n.updated_cells)},
      {"xbar.update_declines", d(n.update_declines)},
      {"xbar.drift_refactorizations", d(n.drift_refactorizations)},
      {"serve.requests_served", d(s.requests_served)},
      {"serve.recalibrations", d(s.recalibrations)},
      {"serve.cells_reprogrammed", d(s.cells_reprogrammed)},
      {"util.parallel_jobs", d(u.jobs)},
      {"util.parallel_inline_jobs", d(u.inline_jobs)},
      {"util.stolen_tasks", d(u.stolen_tasks)},
      {"util.steal_failures", d(u.steal_failures)},
  };
}

Counters counter_delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

void accumulate(Counters& into, const Counters& add) {
  for (const auto& [name, value] : add) into[name] += value;
}

Fields serving_outputs(const xlds::serve::ServingReport& r) {
  const auto n = [](std::size_t v) { return std::to_string(v); };
  return {
      {"arrivals", n(r.arrivals)},
      {"served", n(r.served)},
      {"degraded", n(r.degraded)},
      {"shed_admission", n(r.shed_admission)},
      {"shed_recal", n(r.shed_recal)},
      {"recal_events", n(r.recal_events)},
      {"spare_swaps", n(r.spare_swaps)},
      {"cam_cells_rewritten", n(r.cam_cells_rewritten)},
      {"xbar_cells_repaired", n(r.xbar_cells_repaired)},
      {"floor_violation_ticks", n(r.floor_violation_ticks)},
      {"floor_held", r.floor_held ? "true" : "false"},
      {"overall_accuracy", json_num(r.overall_accuracy)},
      {"latency_p50_s", json_num(r.latency.p50)},
      {"latency_p99_s", json_num(r.latency.p99)},
      {"checksum", json_str(std::to_string(r.checksum))},
  };
}

Counters exploration_counters(const xlds::dse::ExplorationStats& s) {
  const auto d = [](std::size_t v) { return static_cast<double>(v); };
  const auto& busy = s.scheduler.tier_busy_s;
  using xlds::dse::Fidelity;
  return {
      {"dse.computed", d(s.computed)},
      {"dse.cache_hits", d(s.cache_hits)},
      {"dse.cache_appends", d(s.cache_appends)},
      {"dse.journal_hits", d(s.journal_hits)},
      {"dse.tier_busy_s.analytic", busy[static_cast<std::size_t>(Fidelity::kAnalytic)]},
      {"dse.tier_busy_s.nodal", busy[static_cast<std::size_t>(Fidelity::kNodal)]},
      {"dse.tier_busy_s.mc", busy[static_cast<std::size_t>(Fidelity::kMonteCarlo)]},
  };
}

}  // namespace perfbench
