// Micro-benchmark — work-stealing scheduling on DSE-shaped batches.
//
// The DSE engine's batches are heterogeneous: a few Monte-Carlo-tier points
// cost ~100x an analytic point, and each MC point carries its own *inner*
// parallel loop.  A static chunker would leave every lane except the MC ones
// idle behind the slowest chunk, with the inner loops serialized inside
// their worker.  This bench measures the work-stealing pool on exactly that
// shape with virtual-cost tasks (sleeps), so the measured speedups reflect
// *scheduling quality*, not core count — meaningful even on single-core CI
// containers, where CPU-bound scaling is physically impossible but sleeping
// tasks still overlap perfectly.
//
//   hetero:  4 "MC" points (16 subtasks x 6 ms each) + 28 "analytic" points
//            (1.5 ms), one batch at 8 lanes.  Stealing spreads the 64
//            subtasks + cheap tail across all lanes -> ~(4*96 + 42)/8 = 53 ms.
//   nested:  the 4 MC points alone on 8 lanes.
//
// Both are compared against the static schedule's makespan, computed from
// the workload rather than run: a static chunker pins each MC point's serial
// inner loop to one lane, so neither batch can finish before one MC point's
// kMcSubtasks x kMcSubtaskMs = 96 ms (measured at ~99 ms when the pool still
// had a static mode).
//
// Every run also checksums its results: the FNV-64 over the output doubles
// must be identical at 1 vs 8 threads — the determinism contract the
// scheduler is not allowed to trade for speed.
//
// Emits BENCH_scheduler.json.  `--sched-smoke` is the CI gate: heterogeneous
// speedup >= 1.3x and nested speedup >= 1.33x over the static makespan,
// checksums invariant, and at least one nested job actually ran
// cooperatively.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/counters.hpp"
#include "machine.hpp"
#include "util/argparse.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

using namespace xlds;

namespace {

using Clock = std::chrono::steady_clock;

// Virtual workload shape (costs realised as sleeps).
constexpr std::size_t kMcPoints = 4;
constexpr std::size_t kAnalyticPoints = 28;
constexpr std::size_t kMcSubtasks = 16;
constexpr double kMcSubtaskMs = 6.0;
constexpr double kAnalyticMs = 1.5;
/// Static-schedule makespan of both batches: one MC point's serial inner loop.
constexpr double kStaticMakespanS = kMcSubtasks * kMcSubtaskMs / 1e3;

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

std::uint64_t fnv1a64_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct RunResult {
  double seconds = 0.0;
  std::uint64_t checksum = 0;
};

/// One DSE-shaped batch: `mc` expensive points with an inner parallel sweep,
/// then `cheap` light points.  MC points sit at the low indices, so the
/// scheduler sees the expensive work first.  Results land in pre-sized slots; the checksum
/// over them is the determinism witness.
RunResult run_batch(std::size_t threads, std::size_t mc, std::size_t cheap) {
  set_parallel_threads(threads);
  const std::size_t n = mc + cheap;
  std::vector<double> out(n, 0.0);
  const auto t0 = Clock::now();
  parallel_for(n, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      if (i < mc) {
        std::vector<double> sub(kMcSubtasks, 0.0);
        parallel_for(kMcSubtasks, 1, [&](std::size_t b2, std::size_t e2, std::size_t) {
          for (std::size_t s = b2; s < e2; ++s) {
            sleep_ms(kMcSubtaskMs);
            sub[s] = std::sin(static_cast<double>(i) * 31.0 + static_cast<double>(s) * 7.0);
          }
        });
        double acc = 0.0;
        for (const double v : sub) acc += v;  // fixed subtask order
        out[i] = acc;
      } else {
        sleep_ms(kAnalyticMs);
        out[i] = std::cos(static_cast<double>(i) * 13.0);
      }
    }
  });
  RunResult r;
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.checksum = fnv1a64_bytes(out.data(), out.size() * sizeof(double));
  return r;
}

double min_seconds(std::size_t threads, std::size_t mc, std::size_t cheap, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, run_batch(threads, mc, cheap).seconds);
  return best;
}

struct BenchReport {
  double hetero_steal_s = 0.0;
  double nested_steal_s = 0.0;
  bool checksums_equal = false;
  std::uint64_t checksum = 0;
  core::Profiler::SchedCounts steal_counters{};  ///< delta over the hetero runs

  double hetero_speedup() const { return kStaticMakespanS / hetero_steal_s; }
  double nested_speedup() const { return kStaticMakespanS / nested_steal_s; }
};

BenchReport run_bench(int reps) {
  BenchReport rep;

  // Determinism: 1 and 8 lanes must agree byte-wise.
  rep.checksum = run_batch(1, kMcPoints, kAnalyticPoints).checksum;
  rep.checksums_equal = run_batch(8, kMcPoints, kAnalyticPoints).checksum == rep.checksum;

  // Heterogeneous batch at 8 lanes.
  const core::Profiler::SchedCounts before = core::Profiler::sched();
  rep.hetero_steal_s = min_seconds(8, kMcPoints, kAnalyticPoints, reps);
  const core::Profiler::SchedCounts after = core::Profiler::sched();
  rep.steal_counters.jobs = after.jobs - before.jobs;
  rep.steal_counters.tasks = after.tasks - before.tasks;
  rep.steal_counters.stolen_tasks = after.stolen_tasks - before.stolen_tasks;
  rep.steal_counters.steal_failures = after.steal_failures - before.steal_failures;
  rep.steal_counters.nested_cooperative = after.nested_cooperative - before.nested_cooperative;
  rep.steal_counters.nested_inlined = after.nested_inlined - before.nested_inlined;

  // Nested utilization: 4 MC points alone on 8 lanes.
  rep.nested_steal_s = min_seconds(8, kMcPoints, 0, reps);

  set_parallel_threads(0);
  return rep;
}

void emit_json(const BenchReport& r, const std::string& path) {
  std::ofstream json(path);
  json << "{\n"
       << "  \"bench\": \"work_stealing_scheduler\",\n"
       << "  \"machine\": " << bench::machine_json() << ",\n"
       << "  \"workload\": {\"mc_points\": " << kMcPoints << ", \"mc_subtasks\": " << kMcSubtasks
       << ", \"mc_subtask_ms\": " << kMcSubtaskMs << ", \"analytic_points\": " << kAnalyticPoints
       << ", \"analytic_ms\": " << kAnalyticMs << ", \"cost_model\": \"sleep\"},\n"
       << "  \"static_makespan_s\": " << kStaticMakespanS << ",\n"
       << "  \"hetero_batch_8t\": {\"steal_s\": " << r.hetero_steal_s
       << ", \"speedup\": " << r.hetero_speedup() << "},\n"
       << "  \"nested_utilization_8t\": {\"steal_s\": " << r.nested_steal_s
       << ", \"speedup\": " << r.nested_speedup() << "},\n"
       << "  \"determinism\": {\"checksums_equal\": " << (r.checksums_equal ? "true" : "false")
       << ", \"checksum\": " << r.checksum << ", \"runs\": \"1t/8t\"},\n"
       << "  \"steal_counters_hetero\": {\"jobs\": " << r.steal_counters.jobs
       << ", \"tasks\": " << r.steal_counters.tasks
       << ", \"stolen_tasks\": " << r.steal_counters.stolen_tasks
       << ", \"steal_failures\": " << r.steal_counters.steal_failures
       << ", \"nested_cooperative\": " << r.steal_counters.nested_cooperative
       << ", \"nested_inlined\": " << r.steal_counters.nested_inlined << "}\n"
       << "}\n";
}

void print_report(const BenchReport& r) {
  std::cout << "static makespan (one MC point's serial inner loop): " << kStaticMakespanS * 1e3
            << " ms\n"
            << "heterogeneous batch (4 MC x 96 ms nested + 28 analytic x 1.5 ms, 8 lanes):\n"
            << "  stealing " << r.hetero_steal_s * 1e3 << " ms   (" << r.hetero_speedup()
            << "x)\n"
            << "nested utilization (4 MC points alone, 8 lanes):\n"
            << "  stealing " << r.nested_steal_s * 1e3 << " ms   (" << r.nested_speedup()
            << "x)\n"
            << "determinism: checksums " << (r.checksums_equal ? "identical" : "DIVERGED")
            << " across 1t/8t\n"
            << "stealing counters (hetero): " << r.steal_counters.tasks << " tasks + "
            << r.steal_counters.stolen_tasks << " stolen, "
            << r.steal_counters.nested_cooperative << " nested cooperative, "
            << r.steal_counters.steal_failures << " failed scans\n";
}

int run_sched_smoke(const std::string& out_path) {
  std::cout << "scheduler smoke (sleep-cost workload, scheduling-bound):\n";
  const BenchReport r = run_bench(/*reps=*/2);
  print_report(r);
  emit_json(r, out_path);
  std::cout << "  -> " << out_path << "\n";
  bool ok = true;
  if (!(r.hetero_speedup() >= 1.3)) {
    std::cout << "FAIL: heterogeneous-batch stealing speedup " << r.hetero_speedup()
              << "x < 1.3x over the static makespan\n";
    ok = false;
  }
  if (!(r.nested_speedup() >= 1.33)) {
    std::cout << "FAIL: nested-utilization speedup " << r.nested_speedup()
              << "x < 1.33x over the static makespan\n";
    ok = false;
  }
  if (!r.checksums_equal) {
    std::cout << "FAIL: checksums diverged across thread counts\n";
    ok = false;
  }
  if (r.steal_counters.nested_cooperative == 0) {
    std::cout << "FAIL: no nested job ran cooperatively under stealing\n";
    ok = false;
  }
  std::cout << (ok ? "scheduler smoke OK\n" : "scheduler smoke FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scheduler.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--sched-smoke") == 0) return run_sched_smoke(out_path);

  util::ArgParse args("micro_scheduler", "work-stealing scheduling on DSE-shaped batches");
  util::add_bench_options(args, /*default_seed=*/0, /*default_out=*/"BENCH_scheduler.json");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  // NOTE: --threads is accepted but the bench drives the width itself —
  // each measured run pins its own lane count.

  print_banner(std::cout, "Micro-benchmark — work-stealing evaluation scheduler",
               "heterogeneous-batch makespan, nested utilization, determinism");
  std::cout << "Costs are virtual (sleeps): results measure scheduling quality and are\n"
               "stable on single-core CI hosts, where sleeping tasks still overlap.\n\n";

  const BenchReport r = run_bench(/*reps=*/3);
  print_report(r);
  emit_json(r, args.str("out"));
  std::cout << "\n  -> " << args.str("out") << "\n";

  std::cout << "\nExpected shape: a static chunker would pin each MC point's inner loop\n"
               "to one lane (makespan ~96 ms); stealing approaches total-work/lanes\n"
               "(~53 ms heterogeneous, ~48 ms for the 4 MC points alone).  Checksums\n"
               "must not move — placement is the only freedom the scheduler has.\n";
  return 0;
}
