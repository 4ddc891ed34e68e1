// Micro-benchmark — factorization-cached nodal IR-drop solver.
//
// Measures the repeated-query cost of the kNodal readout across array sizes
// and solve strategies:
//   * GS cold    — red-black Gauss-Seidel from a flat initial guess (the
//                  path a declined factorization takes: every query pays the
//                  full iteration).
//   * factorized — one cached Cholesky factorization per programming state,
//                  a forward/back substitution per query.
//   * batched    — the factorized multi-RHS path (readout_batch), which also
//                  parallelises substitutions across the batch.
//
// The Gauss-Seidel reference times only the first few queries of each size
// (cold GS at 128x128 costs seconds per query); both speedups compare
// per-query times.
//
// A second table times the substitution itself on one thread: k single
// NodalSolver::solve calls against solve_block over blocks of 8 right-hand
// sides, in microseconds per right-hand side, and checks that both paths
// produce the same bytes.  A third times the factor kernel at each vector
// width the CPU runs — the scalar reference (1 lane), SSE2 (2) and AVX2 (4) —
// and checks that every width writes the reference's factor bytes.
//
// Emits BENCH_nodal_solver.json.  `--nodal-smoke` is the CI gate: it fails
// (nonzero exit) if the factorized repeated-query path is not faster than
// cold-start Gauss-Seidel — the acceptance bar is 10x on 64x64; the gate
// enforces a conservative >= 2x so CI jitter cannot mask a real regression
// while a broken cache (or an accidentally disabled direct path) still trips
// it instantly — or if solve_block differs from single solves, or the
// dispatched factor kernel from the scalar reference, in any byte.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "device/technology.hpp"
#include "kernels/dispatch.hpp"
#include "machine.hpp"
#include "util/argparse.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xbar/crossbar.hpp"

using namespace xlds;

namespace {

xbar::CrossbarConfig base_config(std::size_t n) {
  xbar::CrossbarConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  cfg.ir_drop = xbar::IrDropMode::kNodal;
  cfg.nodal_max_iters = 50000;  // let the iterative reference converge
  return cfg;
}

MatrixD half_loaded(std::size_t n, const device::RramParams& p, std::uint64_t seed) {
  MatrixD g(n, n, p.g_min);
  Rng fill(seed);
  for (double& v : g.data())
    if (fill.bernoulli(0.5)) v = p.g_max;
  return g;
}

MatrixD query_batch(std::size_t batch, std::size_t n, std::uint64_t seed) {
  MatrixD xs(batch, n);
  Rng rng(seed);
  for (double& v : xs.data()) v = rng.uniform(0.05, 0.95);
  return xs;
}

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double wire_conductance(const xbar::CrossbarConfig& cfg) {
  const device::TechNode& tech = device::tech_node(cfg.tech);
  return 1.0 / (tech.wire_r_per_m * cfg.cell_pitch_f * tech.feature_m);
}

struct SizeResult {
  std::size_t n = 0;
  std::size_t queries = 0;
  std::size_t gs_queries = 0;  ///< leading queries the GS reference solves
  double gs_cold_s = 0.0;      ///< total, `gs_queries` independent cold solves
  double direct_build_s = 0.0; ///< one-time factorization (first query)
  double direct_query_s = 0.0; ///< total, `queries` cached substitutions
  double batch_s = 0.0;        ///< one readout_batch over `queries` vectors
  double max_dev = 0.0;        ///< max |factorized - GS cold| over the GS queries, A
  double gs_tol_current = 0.0; ///< GS accuracy in current units (see below)

  double gs_per_query() const { return gs_cold_s / static_cast<double>(gs_queries); }
  double speedup_repeated() const {
    return direct_query_s > 0.0 ? gs_per_query() * static_cast<double>(queries) / direct_query_s
                                : 0.0;
  }
  double speedup_batched() const {
    return batch_s > 0.0 ? gs_per_query() * static_cast<double>(queries) / batch_s : 0.0;
  }
};

SizeResult run_size(std::size_t n, std::size_t queries, std::size_t gs_queries,
                    std::uint64_t seed) {
  SizeResult res;
  res.n = n;
  res.queries = queries;
  res.gs_queries = std::min(gs_queries, queries);
  const MatrixD g = half_loaded(n, device::RramParams{}, seed);
  const MatrixD xs = query_batch(queries, n, seed + 1);

  // --- Gauss-Seidel, cold start every query (a zero memory cap declines
  // the factorization). -----------------------------------------------------
  auto gs_cfg = base_config(n);
  gs_cfg.nodal_direct_max_bytes = 0;
  std::vector<std::vector<double>> gs_currents(res.gs_queries);
  {
    Rng rng(seed + 2);
    xbar::Crossbar xb(gs_cfg, rng);
    xb.program_conductances(g);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t q = 0; q < res.gs_queries; ++q) {
      const std::vector<double> x(xs.row_data(q), xs.row_data(q) + n);
      gs_currents[q] = xb.column_currents(x);
    }
    res.gs_cold_s = seconds_since(t0);
  }

  // --- factorized: one build, then repeated single-query substitutions. ---
  {
    Rng rng(seed + 2);
    xbar::Crossbar xb(base_config(n), rng);
    xb.program_conductances(g);
    const std::vector<double> x0(xs.row_data(0), xs.row_data(0) + n);
    const auto tb = std::chrono::steady_clock::now();
    (void)xb.column_currents(x0);  // factorizes lazily
    res.direct_build_s = seconds_since(tb);

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t q = 0; q < queries; ++q) {
      const std::vector<double> x(xs.row_data(q), xs.row_data(q) + n);
      const auto i = xb.column_currents(x);
      if (q < res.gs_queries)
        for (std::size_t c = 0; c < n; ++c)
          res.max_dev = std::max(res.max_dev, std::abs(i[c] - gs_currents[q][c]));
    }
    res.direct_query_s = seconds_since(t0);
  }

  // --- factorized, batched multi-RHS. --------------------------------------
  {
    Rng rng(seed + 2);
    xbar::Crossbar xb(base_config(n), rng);
    xb.program_conductances(g);
    const std::vector<double> x0(xs.row_data(0), xs.row_data(0) + n);
    (void)xb.column_currents(x0);  // factorize outside the timed region
    const auto t0 = std::chrono::steady_clock::now();
    const MatrixD out = xb.readout_batch(xs);
    res.batch_s = seconds_since(t0);
    (void)out;
  }

  // GS accuracy in current units: the iterative reference only locates node
  // voltages to ~tol / (1 - rho) — the last-update criterion times the
  // convergence-rate amplification, which grows as ~n^2/2 for red-black
  // sweeps of an n x n resistor grid (a couple thousand at 64x64) — so it is
  // the yardstick the factorized deviation must sit within.  A full column
  // of LRS cells converts the voltage scale to current.
  const device::RramParams p;
  const double gs_amplification = 0.5 * static_cast<double>(n) * static_cast<double>(n);
  res.gs_tol_current = static_cast<double>(n) * p.g_max * gs_amplification *
                       xbar::kNodalTolRel * gs_cfg.read_voltage;
  return res;
}

// ---- blocked vs single substitution ----------------------------------------

struct BlockResult {
  std::size_t n = 0;
  std::size_t rhs = 0;
  double single_us = 0.0;  ///< best-of-repeats time per right-hand side, solve()
  double block_us = 0.0;   ///< same, solve_block over blocks of kMaxBlock
  bool identical = false;  ///< currents and residuals byte-equal

  double speedup() const { return block_us > 0.0 ? single_us / block_us : 0.0; }
};

BlockResult run_block(std::size_t n, std::size_t rhs, int repeats, std::uint64_t seed) {
  BlockResult res;
  res.n = n;
  res.rhs = rhs;
  const xbar::CrossbarConfig cfg = base_config(n);
  xbar::NodalSolver solver;
  if (!solver.factorize(half_loaded(n, cfg.rram, seed), wire_conductance(cfg),
                        cfg.nodal_direct_max_bytes))
    return res;
  MatrixD v_in = query_batch(rhs, n, seed + 1);
  for (double& v : v_in.data()) v *= cfg.read_voltage;

  constexpr std::size_t kBlock = xbar::NodalSolver::kMaxBlock;
  MatrixD i_single(rhs, n), i_block(rhs, n);
  std::vector<xbar::NodalSolver::Result> r_single(rhs), r_block(rhs);
  xbar::NodalSolver::Workspace ws;
  res.single_us = res.block_us = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t j = 0; j < rhs; ++j)
      r_single[j] = solver.solve(v_in.row_data(j), i_single.row_data(j), ws);
    res.single_us = std::min(res.single_us, seconds_since(t0));
    t0 = std::chrono::steady_clock::now();
    for (std::size_t j = 0; j < rhs; j += kBlock)
      solver.solve_block(v_in.row_data(j), i_block.row_data(j), r_block.data() + j,
                         std::min(kBlock, rhs - j), ws);
    res.block_us = std::min(res.block_us, seconds_since(t0));
  }
  res.single_us *= 1e6 / static_cast<double>(rhs);
  res.block_us *= 1e6 / static_cast<double>(rhs);
  res.identical =
      std::memcmp(i_single.data().data(), i_block.data().data(), rhs * n * sizeof(double)) == 0;
  for (std::size_t j = 0; j < rhs; ++j)
    res.identical = res.identical && std::memcmp(&r_single[j].residual, &r_block[j].residual,
                                                 sizeof(double)) == 0;
  return res;
}

// ---- factor kernel widths --------------------------------------------------

struct FactorResult {
  std::size_t n = 0;
  std::vector<std::size_t> widths;  ///< lanes per vector: 1, 2 and (AVX2) 4
  std::vector<double> best_ms;      ///< best-of-repeats factorize time per width
  bool identical = true;            ///< every width wrote the 1-lane bytes

  double speedup() const { return best_ms.front() / best_ms.back(); }
};

/// Factorize one envelope at every kernel width the CPU runs, the widths
/// interleaved within each repeat so host noise hits them alike.
FactorResult run_factor(std::size_t n, int repeats, std::uint64_t seed) {
  FactorResult res;
  res.n = n;
  res.widths = {1, 2};
  if (xbar::NodalSolver::kernel_lanes() == 4) res.widths.push_back(4);
  res.best_ms.assign(res.widths.size(), 1e300);
  const xbar::CrossbarConfig cfg = base_config(n);
  const MatrixD g = half_loaded(n, cfg.rram, seed);
  std::vector<double> reference;
  for (int rep = 0; rep < repeats; ++rep) {
    for (std::size_t w = 0; w < res.widths.size(); ++w) {
      xbar::NodalSolver solver;
      const auto t0 = std::chrono::steady_clock::now();
      const bool ok = solver.factorize(g, wire_conductance(cfg), cfg.nodal_direct_max_bytes,
                                       res.widths[w]);
      res.best_ms[w] = std::min(res.best_ms[w], seconds_since(t0) * 1e3);
      const std::vector<double>& vals = solver.factor_values();
      if (w == 0) reference = vals;
      res.identical = res.identical && ok && vals.size() == reference.size() &&
                      std::memcmp(vals.data(), reference.data(),
                                  vals.size() * sizeof(double)) == 0;
    }
  }
  return res;
}

void print_results(const std::vector<SizeResult>& results) {
  Table table({"array", "queries", "GS cold / query", "factorize", "per query",
               "batched", "speedup", "batched speedup", "max dev"});
  for (const SizeResult& r : results) {
    table.add_row({std::to_string(r.n) + "x" + std::to_string(r.n), std::to_string(r.queries),
                   Table::num(r.gs_per_query() * 1e3, 1) + " ms",
                   Table::num(r.direct_build_s * 1e3, 1) + " ms",
                   Table::num(r.direct_query_s * 1e3 / static_cast<double>(r.queries), 2) + " ms",
                   Table::num(r.batch_s * 1e3, 1) + " ms",
                   Table::num(r.speedup_repeated(), 1) + "x",
                   Table::num(r.speedup_batched(), 1) + "x",
                   Table::num(r.max_dev * 1e9, 2) + " nA"});
  }
  std::cout << table;
  std::cout << "(GS cold: the first " << results.front().gs_queries
            << " queries; max dev over those)\n";
}

void print_block_results(const std::vector<BlockResult>& results) {
  Table table({"array", "rhs", "solve()", "solve_block", "speedup", "bytes"});
  for (const BlockResult& r : results)
    table.add_row({std::to_string(r.n) + "x" + std::to_string(r.n), std::to_string(r.rhs),
                   Table::num(r.single_us, 1) + " us/rhs", Table::num(r.block_us, 1) + " us/rhs",
                   Table::num(r.speedup(), 2) + "x", r.identical ? "identical" : "DIFFER"});
  std::cout << "\nSubstitution only, 1 thread, blocks of " << xbar::NodalSolver::kMaxBlock
            << " right-hand sides:\n"
            << table;
}

void print_factor_results(const std::vector<FactorResult>& results) {
  Table table({"array", "1 lane", "2 lanes", "4 lanes", "speedup", "bytes"});
  for (const FactorResult& r : results) {
    std::vector<std::string> row = {std::to_string(r.n) + "x" + std::to_string(r.n)};
    for (std::size_t w = 0; w < 3; ++w)
      row.push_back(w < r.best_ms.size() ? Table::num(r.best_ms[w], 2) + " ms" : "n/a");
    row.push_back(Table::num(r.speedup(), 2) + "x");
    row.push_back(r.identical ? "identical" : "DIFFER");
    table.add_row(row);
  }
  std::cout << "\nFactor kernel, 1 thread, best of interleaved repeats (isa: "
            << kernels::isa_name() << "):\n"
            << table;
}

void emit_json(const std::vector<SizeResult>& results, const std::vector<BlockResult>& blocks,
               const std::vector<FactorResult>& factors) {
  std::ofstream json("BENCH_nodal_solver.json");
  json << "{\n"
       << "  \"bench\": \"nodal_solver\",\n"
       << "  \"threads\": " << parallel_thread_count() << ",\n"
       << "  \"machine\": " << bench::machine_json() << ",\n"
       << "  \"blocked_substitution\": [\n";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockResult& b = blocks[i];
    json << "    {\"array\": " << b.n << ", \"rhs\": " << b.rhs << ", \"block\": "
         << xbar::NodalSolver::kMaxBlock << ", \"single_us_per_rhs\": " << b.single_us
         << ", \"block_us_per_rhs\": " << b.block_us << ", \"speedup\": " << b.speedup()
         << ", \"bit_identical\": " << (b.identical ? "true" : "false") << "}"
         << (i + 1 < blocks.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"factor_kernels\": [\n";
  for (std::size_t i = 0; i < factors.size(); ++i) {
    const FactorResult& f = factors[i];
    json << "    {\"array\": " << f.n << ", \"best_ms_by_lanes\": {";
    for (std::size_t w = 0; w < f.widths.size(); ++w)
      json << (w ? ", " : "") << "\"" << f.widths[w] << "\": " << f.best_ms[w];
    json << "}, \"speedup\": " << f.speedup()
         << ", \"bit_identical\": " << (f.identical ? "true" : "false") << "}"
         << (i + 1 < factors.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json << "    {\"array\": " << r.n << ", \"queries\": " << r.queries
         << ", \"gs_queries\": " << r.gs_queries << ", \"gs_cold_seconds\": " << r.gs_cold_s
         << ", \"factorize_seconds\": " << r.direct_build_s
         << ", \"factorized_repeated_seconds\": " << r.direct_query_s
         << ", \"factorized_batched_seconds\": " << r.batch_s
         << ", \"speedup_repeated\": " << r.speedup_repeated()
         << ", \"speedup_batched\": " << r.speedup_batched()
         << ", \"max_column_current_deviation_amps\": " << r.max_dev
         << ", \"gs_tolerance_amps\": " << r.gs_tol_current << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\n  -> BENCH_nodal_solver.json\n";
}

/// CI gate: the factorized repeated-query path must beat cold-start
/// Gauss-Seidel and agree with it within the iterative solver's accuracy.
int run_nodal_smoke() {
  std::cout << "nodal solver smoke (" << parallel_thread_count() << " thread(s), isa "
            << kernels::isa_name() << ", " << xbar::NodalSolver::kernel_lanes()
            << " lanes per vector):\n";
  const SizeResult r = run_size(64, /*queries=*/8, /*gs_queries=*/8, /*seed=*/2000);
  std::cout << "  64x64, 8 queries: GS cold " << r.gs_cold_s * 1e3 << " ms, factorized "
            << r.direct_query_s * 1e3 << " ms (+ " << r.direct_build_s * 1e3
            << " ms one-time factorize), speedup " << r.speedup_repeated()
            << "x, max deviation " << r.max_dev << " A (tolerance " << r.gs_tol_current
            << " A)\n";
  const BlockResult b = run_block(64, /*rhs=*/12, /*repeats=*/1, /*seed=*/2000);
  std::cout << "  64x64, 12 inputs: solve() " << b.single_us << " us/rhs, solve_block "
            << b.block_us << " us/rhs, " << (b.identical ? "bytes identical" : "bytes DIFFER")
            << "\n";
  const FactorResult f = run_factor(64, /*repeats=*/1, /*seed=*/2000);
  std::cout << "  64x64 factor: " << f.best_ms.front() << " ms at 1 lane, " << f.best_ms.back()
            << " ms at " << f.widths.back() << " lanes, "
            << (f.identical ? "bytes identical" : "bytes DIFFER") << "\n";
  bool ok = true;
  if (!f.identical) {
    std::cout << "FAIL: the dispatched factor kernel differs from the scalar reference\n";
    ok = false;
  }
  if (!b.identical) {
    std::cout << "FAIL: solve_block differs from single solves\n";
    ok = false;
  }
  if (r.speedup_repeated() < 2.0) {
    std::cout << "FAIL: factorized repeated-query path is not clearly faster than "
                 "cold-start Gauss-Seidel\n";
    ok = false;
  }
  if (r.max_dev > r.gs_tol_current) {
    std::cout << "FAIL: factorized currents deviate from Gauss-Seidel beyond the "
                 "solver tolerance\n";
    ok = false;
  }
  std::cout << (ok ? "nodal smoke OK\n" : "nodal smoke FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--nodal-smoke") == 0) return run_nodal_smoke();

  util::ArgParse args("micro_nodal_solver",
                      "repeated-query nodal readout: Gauss-Seidel vs cached factorization");
  util::add_bench_options(args, /*default_seed=*/2000);
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  util::apply_bench_options(args);
  const std::uint64_t seed = args.uinteger("seed");

  print_banner(std::cout, "Micro-benchmark — factorization-cached nodal solver",
               "GS cold vs factorized (single and batched multi-RHS)");
  std::cout << "Threads: " << parallel_thread_count() << " (XLDS_THREADS).\n\n";

  std::vector<SizeResult> results;
  for (std::size_t n : {16u, 32u, 64u, 128u})
    results.push_back(run_size(n, /*queries=*/16, /*gs_queries=*/4, seed));

  print_results(results);
  std::vector<BlockResult> blocks;
  for (std::size_t n : {64u, 128u}) blocks.push_back(run_block(n, /*rhs=*/32, /*repeats=*/3, seed));
  print_block_results(blocks);
  std::vector<FactorResult> factors;
  for (std::size_t n : {64u, 128u}) factors.push_back(run_factor(n, /*repeats=*/10, seed));
  print_factor_results(factors);
  emit_json(results, blocks, factors);

  std::cout << "\nExpected shape: cold-start Gauss-Seidel cost per query grows steeply\n"
               "with array size; the cached factorization pays a one-time build and\n"
               "then answers each query with a forward/back substitution — 10x+ faster\n"
               "on repeated 64x64 queries — and the batched path adds parallel\n"
               "substitutions on top.\n";
  return 0;
}
