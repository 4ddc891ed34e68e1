// Micro-benchmark — incremental rank-1 up/down-dates vs full refactorization
// of the cached nodal factor.
//
// A fault injection or partial re-program perturbs the crossbar conductance
// matrix by one rank-1 term per touched cell.  The pre-update behaviour paid
// a full envelope refactorization (O(n * bw^2)) on the next readout; the
// incremental path (NodalSolver::update_cells, method C1) patches the factor
// in place at O((n - p) * bw) per cell.  This bench times both at the solver
// level across patch sizes and array sizes, checks the updated factor agrees
// with a from-scratch factorization of the patched matrix, and reports the
// core::Profiler nodal counters so the factorize/update/decline accounting
// is visible.
//
// Emits BENCH_incremental_update.json.  `--update-smoke` is the CI gate: a
// single-cell update on a 64x64 array must be >= 5x faster than a full
// refactorization (the real ratio is ~2 orders of magnitude; 5x keeps CI
// jitter from masking a real regression) and must stay within the solver
// tolerance of the fresh factor.
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "device/rram.hpp"
#include "device/technology.hpp"
#include "machine.hpp"
#include "util/argparse.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/nodal_solver.hpp"

using namespace xlds;

namespace {

constexpr std::size_t kFactorBytes = 512u << 20;

/// Per-segment wire conductance with the CrossbarConfig defaults (the same
/// derivation Crossbar uses internally).
double default_g_wire() {
  const xbar::CrossbarConfig cfg;
  const auto& node = device::tech_node(cfg.tech);
  return 1.0 / (node.wire_r_per_m * cfg.cell_pitch_f * node.feature_m);
}

MatrixD half_loaded(std::size_t n, const device::RramParams& p, std::uint64_t seed) {
  MatrixD g(n, n, p.g_min);
  Rng fill(seed);
  for (double& v : g.data())
    if (fill.bernoulli(0.5)) v = p.g_max;
  return g;
}

/// `m` distinct cells spread across the array; targets toggle each patch so
/// repeated timing reps never walk the conductances out of range.
std::vector<xbar::CellDelta> make_patch(std::size_t n, std::size_t m, const MatrixD& g,
                                        const device::RramParams& p, Rng& rng) {
  std::vector<xbar::CellDelta> patch;
  patch.reserve(m);
  while (patch.size() < m) {
    const auto r = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n)) % n;
    const auto c = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n)) % n;
    bool dup = false;
    for (const auto& d : patch) dup = dup || (d.row == r && d.col == c);
    if (dup) continue;
    // Flip between the two device states: guaranteed nonzero delta.
    patch.push_back({r, c, g(r, c) == p.g_min ? p.g_max : p.g_min});
  }
  return patch;
}

void flip_patch(std::vector<xbar::CellDelta>& patch, const device::RramParams& p) {
  for (auto& d : patch) d.g_new = d.g_new == p.g_min ? p.g_max : p.g_min;
}

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct UpdateResult {
  std::size_t n = 0;
  std::size_t patch_cells = 0;
  double update_s = 0.0;       ///< per patch (all cells), incremental
  double refactorize_s = 0.0;  ///< per full factorization
  double max_dev = 0.0;        ///< updated vs fresh factor, column currents, A
  double tol_current = 0.0;    ///< acceptance bound in current units

  double speedup() const { return update_s > 0.0 ? refactorize_s / update_s : 0.0; }
};

UpdateResult run_case(std::size_t n, std::size_t m, std::uint64_t seed) {
  UpdateResult res;
  res.n = n;
  res.patch_cells = m;
  const device::RramParams p;
  const double gw = default_g_wire();
  MatrixD g = half_loaded(n, p, seed);
  Rng rng(seed + 1);
  std::vector<xbar::CellDelta> patch = make_patch(n, m, g, p, rng);

  // --- full refactorization baseline (what the patch used to cost). -------
  {
    xbar::NodalSolver solver;
    std::size_t reps = 0;
    const auto t0 = std::chrono::steady_clock::now();
    do {
      if (!solver.factorize(g, gw, kFactorBytes)) {
        std::cerr << "factorization declined at " << n << "x" << n << "\n";
        std::exit(2);
      }
      ++reps;
    } while (seconds_since(t0) < 0.2 && reps < 50);
    res.refactorize_s = seconds_since(t0) / static_cast<double>(reps);
  }

  // --- incremental updates: one patch of m cells per rep, toggling. --------
  {
    xbar::NodalSolver solver;
    if (!solver.factorize(g, gw, kFactorBytes)) std::exit(2);
    std::size_t reps = 0;
    const auto t0 = std::chrono::steady_clock::now();
    do {
      if (!solver.update_cells(patch.data(), patch.size())) {
        std::cerr << "incremental update broke down at " << n << "x" << n << " m=" << m
                  << "\n";
        std::exit(2);
      }
      flip_patch(patch, p);
      ++reps;
    } while (seconds_since(t0) < 0.2 && reps < 2000);
    res.update_s = seconds_since(t0) / static_cast<double>(reps);
    if (reps % 2 == 1) flip_patch(patch, p);  // leave `patch` = next odd state
  }

  // --- agreement: one applied patch vs a from-scratch factorization. -------
  {
    xbar::NodalSolver updated;
    if (!updated.factorize(g, gw, kFactorBytes)) std::exit(2);
    if (!updated.update_cells(patch.data(), patch.size())) std::exit(2);
    MatrixD g_patched = g;
    for (const auto& d : patch) g_patched(d.row, d.col) = d.g_new;
    xbar::NodalSolver fresh;
    if (!fresh.factorize(g_patched, gw, kFactorBytes)) std::exit(2);

    std::vector<double> v_in(n);
    for (std::size_t r = 0; r < n; ++r)
      v_in[r] = 0.2 * (0.1 + 0.8 * static_cast<double>(r) / static_cast<double>(n - 1));
    std::vector<double> i_upd(n), i_fresh(n);
    xbar::NodalSolver::Workspace w1, w2;
    const auto r1 = updated.solve(v_in.data(), i_upd.data(), w1);
    const auto r2 = fresh.solve(v_in.data(), i_fresh.data(), w2);
    for (std::size_t c = 0; c < n; ++c)
      res.max_dev = std::max(res.max_dev, std::abs(i_upd[c] - i_fresh[c]));
    // Both factors answer the same SPD system; each solution sits within the
    // kNodalTolRel residual bar, amplified through the network conditioning
    // (~n^2/2 for an n x n resistor grid) and converted to current by a full
    // column of LRS cells — the same yardstick the GS cross-check uses.
    const double amplification = 0.5 * static_cast<double>(n) * static_cast<double>(n);
    res.tol_current = static_cast<double>(n) * p.g_max * amplification * xbar::kNodalTolRel * 0.2;
    if (!(r1.residual < xbar::kNodalTolRel * 0.2) || !(r2.residual < xbar::kNodalTolRel * 0.2)) {
      std::cerr << "solver residual above tolerance (updated " << r1.residual << ", fresh "
                << r2.residual << ")\n";
      std::exit(2);
    }
  }
  return res;
}

void print_results(const std::vector<UpdateResult>& results) {
  Table table({"array", "patch cells", "update/patch", "refactorize", "speedup", "max dev",
               "tolerance"});
  for (const UpdateResult& r : results) {
    table.add_row({std::to_string(r.n) + "x" + std::to_string(r.n),
                   std::to_string(r.patch_cells),
                   Table::num(r.update_s * 1e6, 1) + " us",
                   Table::num(r.refactorize_s * 1e6, 1) + " us",
                   Table::num(r.speedup(), 1) + "x",
                   Table::num(r.max_dev * 1e9, 3) + " nA",
                   Table::num(r.tol_current * 1e9, 1) + " nA"});
  }
  std::cout << table;
}

void emit_json(const std::vector<UpdateResult>& results) {
  std::ofstream json("BENCH_incremental_update.json");
  json << "{\n"
       << "  \"bench\": \"incremental_update\",\n"
       << "  \"threads\": " << parallel_thread_count() << ",\n"
       << "  \"machine\": " << bench::machine_json() << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const UpdateResult& r = results[i];
    json << "    {\"array\": " << r.n << ", \"patch_cells\": " << r.patch_cells
         << ", \"update_seconds_per_patch\": " << r.update_s
         << ", \"refactorize_seconds\": " << r.refactorize_s
         << ", \"speedup\": " << r.speedup()
         << ", \"max_column_current_deviation_amps\": " << r.max_dev
         << ", \"tolerance_amps\": " << r.tol_current << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\n  -> BENCH_incremental_update.json\n";
}

void print_counters() {
  const auto c = core::Profiler::nodal();
  std::cout << "\nProfiler nodal counters: " << c.factorizations << " factorizations, "
            << c.incremental_updates << " incremental updates (" << c.updated_cells
            << " cells), " << c.update_declines << " declines, " << c.drift_refactorizations
            << " drift refactorizations, " << c.direct_solves << " direct / " << c.gs_solves
            << " GS solves.\n";
}

/// CI gate: a single-cell update at 64x64 must be >= 5x cheaper than a full
/// refactorization and agree with the fresh factor.
int run_update_smoke() {
  std::cout << "incremental update smoke (" << parallel_thread_count() << " thread(s)):\n";
  const UpdateResult r = run_case(64, /*m=*/1, /*seed=*/3000);
  std::cout << "  64x64, 1-cell patch: update " << r.update_s * 1e6 << " us, refactorize "
            << r.refactorize_s * 1e6 << " us, speedup " << r.speedup() << "x, max deviation "
            << r.max_dev << " A (tolerance " << r.tol_current << " A)\n";
  bool ok = true;
  if (r.speedup() < 5.0) {
    std::cout << "FAIL: incremental single-cell update is not >= 5x faster than a full "
                 "refactorization\n";
    ok = false;
  }
  if (r.max_dev > r.tol_current) {
    std::cout << "FAIL: updated factor deviates from a fresh factorization beyond the "
                 "solver tolerance\n";
    ok = false;
  }
  std::cout << (ok ? "update smoke OK\n" : "update smoke FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--update-smoke") == 0) return run_update_smoke();

  util::ArgParse args("micro_incremental_update",
                      "rank-1 factor up/down-dates vs full nodal refactorization");
  util::add_bench_options(args, /*default_seed=*/3000);
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  util::apply_bench_options(args);
  const std::uint64_t seed = args.uinteger("seed");

  print_banner(std::cout, "Micro-benchmark — incremental nodal factor updates",
               "method C1 rank-1 up/down-dates vs full envelope refactorization");
  std::cout << "Threads: " << parallel_thread_count() << " (XLDS_THREADS).\n\n";

  core::Profiler::reset_nodal();
  std::vector<UpdateResult> results;
  for (std::size_t n : {64u, 128u})
    for (std::size_t m : {1u, 2u, 4u, 8u, 16u}) results.push_back(run_case(n, m, seed));

  print_results(results);
  emit_json(results);
  print_counters();

  std::cout << "\nExpected shape: a single-cell patch costs two orders of magnitude less\n"
               "than refactorizing (the rank-1 sweep touches one envelope row set, the\n"
               "refactorization every one of them); the advantage shrinks roughly\n"
               "linearly in patch size and meets the refactorization cost around\n"
               "bandwidth/8 cells — which is exactly where the crossbar's incremental\n"
               "policy (at most bandwidth/8 cells per patch) stops accepting patches.\n";
  return 0;
}
