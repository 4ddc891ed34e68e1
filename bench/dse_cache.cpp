// DSE — the persistent cross-run result cache: reuse and determinism pins.
//
// Two questions decide whether the cache earns its place under the engine:
//
//   1. Reuse: a warm --cache rerun of a real MC job must be >= 10x faster
//      than the cold run that populated it (every physics evaluation served
//      from disk, zero recompute).
//   2. Determinism: front JSON and journal bytes must be bit-identical
//      across cache states (none / cold / warm) — caching is speed-only by
//      contract.
//
// --cache-smoke runs both as a CI gate and the JSON lands in
// BENCH_cache.json, stamped with the machine that produced it.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dse/engine.hpp"
#include "dse/jobspec.hpp"
#include "machine.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

using namespace xlds;

namespace {

namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string scratch(const std::string& stem) {
  const std::string path = (fs::temp_directory_path() / ("xlds_bench_" + stem)).string();
  fs::remove(path);
  return path;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The MC job every phase runs: NSGA-II over the full grid at the
/// Monte-Carlo tier.  One config, three cache states — the whole point is
/// that the outputs never notice.
dse::EngineConfig mc_job() {
  dse::EngineConfig config;
  config.strategy = "nsga2";
  config.budget = 60;
  config.seed = 7;
  config.fidelity.max_fidelity = dse::Fidelity::kMonteCarlo;
  return config;
}

/// Resume-comparable output: what `xlds-dse --no-stats` would print.
std::string front_json(const dse::ExplorationResult& r) {
  return dse::result_to_json(r, /*include_stats=*/false).dump(2);
}

struct TimedRun {
  dse::ExplorationResult result;
  double seconds = 0.0;
  std::string journal;  ///< journal bytes after the run
};

/// Cold = honestly cold: every explore() builds its own ladder, whose memos
/// start empty, so only the result cache (if any) can serve an evaluation.
TimedRun timed_explore(dse::EngineConfig config, const std::string& journal_path) {
  config.journal_path = journal_path;
  fs::remove(journal_path);
  TimedRun run;
  const double t0 = now_s();
  run.result = dse::explore(config);
  run.seconds = now_s() - t0;
  run.journal = read_bytes(journal_path);
  fs::remove(journal_path);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParse args("dse_cache",
                      "persistent result cache: warm-rerun reuse and bit-identity pins");
  util::add_bench_options(args, /*default_seed=*/7, "BENCH_cache.json");
  args.add_flag("cache-smoke",
                "quick CI gate: >= 10x warm cache, bit-identical fronts and journals "
                "across cache states");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  util::apply_bench_options(args);

  print_banner(std::cout, "DSE — persistent result cache",
               "warm-cache reuse; determinism pins across cache states");

  // ---- Reuse: cold then warm on the real MC job ---------------------------
  const std::string cache_path = scratch("cache.xrc");
  dse::EngineConfig cached_job = mc_job();
  cached_job.cache_path = cache_path;
  const TimedRun cold = timed_explore(cached_job, scratch("cold.xjl"));
  const TimedRun warm = timed_explore(cached_job, scratch("warm.xjl"));
  fs::remove(cache_path);
  const double cache_speedup = warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0;

  Table cache_table({"run", "wall s", "computed", "cache hits", "cache appends"});
  for (const auto& [name, run] : {std::pair{"cold", &cold}, std::pair{"warm", &warm}})
    cache_table.add_row({name, Table::num(run->seconds, 3),
                         std::to_string(run->result.stats.computed),
                         std::to_string(run->result.stats.cache_hits),
                         std::to_string(run->result.stats.cache_appends)});
  std::cout << cache_table << "\nWarm-cache speedup: " << Table::num(cache_speedup, 1)
            << "x (" << warm.result.stats.cache_hits << " evaluations served from "
            << "disk, " << warm.result.stats.computed << " recomputed).\n\n";

  // ---- Determinism: both cache states against a cache-less reference -----
  const TimedRun reference = timed_explore(mc_job(), scratch("ref.xjl"));
  const std::string want_front = front_json(reference.result);

  struct Pin {
    std::string name;
    bool front_ok = false;
    bool journal_ok = false;
  };
  const std::vector<Pin> pins = {
      {"cold cache", front_json(cold.result) == want_front, cold.journal == reference.journal},
      {"warm cache", front_json(warm.result) == want_front, warm.journal == reference.journal},
  };
  bool all_identical = true;
  Table pin_table({"variation", "front JSON", "journal bytes"});
  for (const Pin& p : pins) {
    pin_table.add_row({p.name, p.front_ok ? "identical" : "DIVERGED",
                       p.journal_ok ? "identical" : "DIVERGED"});
    all_identical = all_identical && p.front_ok && p.journal_ok;
  }
  std::cout << pin_table;
  std::cout << "\nExpected shape: a warm cache that recomputes nothing, and both\n"
               "cache states bit-identical to the cache-less reference run.\n";

  if (!args.str("out").empty()) {
    std::ofstream json(args.str("out"));
    json << "{\n  \"bench\": \"dse_cache\",\n  \"machine\": " << bench::machine_json()
         << ",\n  \"cache\": {"
         << "\"cold_s\": " << cold.seconds << ", \"warm_s\": " << warm.seconds
         << ", \"speedup\": " << cache_speedup
         << ", \"warm_computed\": " << warm.result.stats.computed
         << ", \"warm_hits\": " << warm.result.stats.cache_hits << "},\n  \"identical\": {";
    for (std::size_t i = 0; i < pins.size(); ++i) {
      std::string key = pins[i].name;
      for (char& c : key)
        if (c == ' ') c = '_';
      json << (i ? ", " : "") << "\"" << key
           << "\": " << (pins[i].front_ok && pins[i].journal_ok ? "true" : "false");
    }
    json << "}\n}\n";
    std::cout << "\nJSON written to " << args.str("out") << ".\n";
  }

  if (args.flag("cache-smoke")) {
    bool ok = true;
    if (cache_speedup < 10.0) {
      std::cerr << "cache-smoke: warm-cache speedup " << Table::num(cache_speedup, 2)
                << "x is below the 10x bar\n";
      ok = false;
    }
    if (warm.result.stats.computed != 0) {
      std::cerr << "cache-smoke: warm run recomputed " << warm.result.stats.computed
                << " evaluations (expected 0)\n";
      ok = false;
    }
    if (!all_identical) {
      std::cerr << "cache-smoke: a cache state diverged from the reference run "
                   "(see table above)\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "\ncache-smoke: " << Table::num(cache_speedup, 1)
              << "x warm cache, every cache state bit-identical — gate passed.\n";
  }
  return 0;
}
