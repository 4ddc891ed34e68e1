// Tests for the factorization-cached nodal IR-drop solver: agreement with
// the Gauss-Seidel reference across shapes (including degenerate and
// non-square arrays, faults and aged cells), the invalidation contract on
// program/fault/age, batched-vs-single bit-equality (including the lane-
// blocked multi-RHS substitution against single solves), thread-count
// invariance of readout_batch, the per-call SolveStatus reporting, and that a
// Gauss-Seidel answer does not depend on earlier queries.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/counters.hpp"

#include "device/rram.hpp"
#include "fault/fault_map.hpp"
#include "mann/lsh.hpp"
#include "util/hash.hpp"
#include "util/matrix.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/nodal_solver.hpp"
#include "xbar/tiled.hpp"

namespace xlds {
namespace {

class NodalTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

xbar::CrossbarConfig quiet_config(std::size_t rows, std::size_t cols) {
  xbar::CrossbarConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  cfg.ir_drop = xbar::IrDropMode::kNodal;
  // Give the iterative reference enough budget to actually converge on the
  // denser shapes; the direct path does not consume it.
  cfg.nodal_max_iters = 50000;
  return cfg;
}

MatrixD mixed_conductances(std::size_t rows, std::size_t cols, const device::RramParams& p,
                           std::uint64_t seed) {
  MatrixD g(rows, cols, p.g_min);
  Rng fill(seed);
  for (double& v : g.data())
    if (fill.bernoulli(0.5)) v = p.g_max;
  return g;
}

std::vector<double> ramp_input(std::size_t rows) {
  std::vector<double> x(rows);
  for (std::size_t r = 0; r < rows; ++r)
    x[r] = 0.1 + 0.8 * static_cast<double>(r) / static_cast<double>(std::max<std::size_t>(rows - 1, 1));
  return x;
}

// Direct and Gauss-Seidel answers agree within the iterative solver's real
// accuracy.  The direct solve is machine-precision; Gauss-Seidel stops when
// the last sweep's update drops below kNodalTolRel * V, which bounds the
// remaining solution error only up to the convergence-rate amplification
// (error ~ update / (1 - rho), with rho near 1 on the larger arrays) — a few
// parts in 1e4 of the column magnitude in practice.
void expect_currents_close(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  double scale = 0.0;
  for (double v : a) scale = std::max(scale, std::abs(v));
  ASSERT_GT(scale, 0.0);
  for (std::size_t c = 0; c < a.size(); ++c)
    EXPECT_NEAR(a[c], b[c], 1e-3 * scale) << "column " << c;
}

// ---- factorized vs Gauss-Seidel across shapes -------------------------------

struct ShapeCase {
  std::size_t rows, cols;
};

class NodalShapeTest : public NodalTest, public ::testing::WithParamInterface<ShapeCase> {};

TEST_P(NodalShapeTest, DirectMatchesGaussSeidel) {
  const auto [rows, cols] = GetParam();
  auto cfg = quiet_config(rows, cols);
  const MatrixD g = mixed_conductances(rows, cols, cfg.rram, 7 + rows * 131 + cols);
  const std::vector<double> x = ramp_input(rows);

  Rng r1(3);
  xbar::Crossbar direct(cfg, r1);
  direct.program_conductances(g);
  xbar::SolveStatus ds;
  const auto i_direct = direct.column_currents(x, ds);
  EXPECT_TRUE(ds.direct);
  EXPECT_TRUE(ds.converged);
  EXPECT_EQ(ds.iterations, 0u);
  EXPECT_FALSE(ds.used_fallback);
  // The factorized residual must beat the Gauss-Seidel acceptance bar.
  EXPECT_LT(ds.residual, xbar::kNodalTolRel * cfg.read_voltage);
  EXPECT_TRUE(direct.nodal_factorized());

  cfg.nodal_direct_max_bytes = 0;  // decline the factor: Gauss-Seidel only
  Rng r2(3);
  xbar::Crossbar gs(cfg, r2);
  gs.program_conductances(g);
  xbar::SolveStatus gss;
  const auto i_gs = gs.column_currents(x, gss);
  ASSERT_TRUE(gss.converged);
  EXPECT_FALSE(gss.direct);
  EXPECT_GT(gss.iterations, 0u);

  expect_currents_close(i_direct, i_gs);
}

INSTANTIATE_TEST_SUITE_P(Shapes, NodalShapeTest,
                         ::testing::Values(ShapeCase{1, 1}, ShapeCase{1, 8}, ShapeCase{8, 1},
                                           ShapeCase{16, 16}, ShapeCase{64, 64},
                                           ShapeCase{48, 32}, ShapeCase{32, 48}),
                         [](const ::testing::TestParamInfo<ShapeCase>& info) {
                           return std::to_string(info.param.rows) + "x" +
                                  std::to_string(info.param.cols);
                         });

// ---- agreement with faults and aged cells -----------------------------------

TEST_F(NodalTest, DirectMatchesGaussSeidelWithFaultsAndAging) {
  auto cfg = quiet_config(24, 24);
  const MatrixD g = mixed_conductances(24, 24, cfg.rram, 99);

  const auto prepare = [&](xbar::Crossbar& xb) {
    xb.program_conductances(g);
    xb.inject_stuck_fault(0, 0, cfg.rram.g_max);  // stuck-on
    xb.inject_stuck_fault(3, 7, 0.0);             // open cell
    xb.inject_stuck_fault(23, 23, cfg.rram.g_min);
    xb.age(3600.0);  // relax the surviving cells
  };

  Rng r1(11);
  xbar::Crossbar direct(cfg, r1);
  prepare(direct);
  xbar::SolveStatus ds;
  const auto i_direct = direct.column_currents(ramp_input(24), ds);
  EXPECT_TRUE(ds.direct);
  EXPECT_TRUE(ds.converged);

  cfg.nodal_direct_max_bytes = 0;  // decline the factor: Gauss-Seidel only
  Rng r2(11);
  xbar::Crossbar gs(cfg, r2);
  prepare(gs);
  xbar::SolveStatus gss;
  const auto i_gs = gs.column_currents(ramp_input(24), gss);
  ASSERT_TRUE(gss.converged);

  expect_currents_close(i_direct, i_gs);
}

// ---- invalidation contract --------------------------------------------------

TEST_F(NodalTest, ProgramFaultAndAgeInvalidateTheFactorization) {
  // The contract after the incremental-update work: whole-array mutations
  // still invalidate, but no-op re-programs and small patches (faults,
  // partial re-programs) keep the factorization alive — the former because
  // nothing changed electrically, the latter via rank-1 up/down-dates.
  auto cfg = quiet_config(8, 8);
  Rng rng(5);
  xbar::Crossbar xb(cfg, rng);
  const MatrixD g = mixed_conductances(8, 8, cfg.rram, 21);
  xb.program_conductances(g);
  EXPECT_FALSE(xb.nodal_factorized());  // built lazily, not at program time

  const std::vector<double> x(8, 1.0);
  (void)xb.column_currents(x);
  EXPECT_TRUE(xb.nodal_factorized());

  xb.program_conductances(g);  // noiseless identical targets: no-op
  EXPECT_TRUE(xb.nodal_factorized()) << "no-op reprogram must keep the factor";
  EXPECT_EQ(xb.nodal_updates_applied(), 0u);

  xb.age(60.0);  // every cell relaxes: far beyond the incremental cap
  EXPECT_FALSE(xb.nodal_factorized()) << "age must invalidate";
  (void)xb.column_currents(x);
  EXPECT_TRUE(xb.nodal_factorized());

  xb.inject_stuck_fault(2, 2, 0.0);  // single cell: rank-1 downdate in place
  EXPECT_TRUE(xb.nodal_factorized()) << "single-cell fault must update in place";
  EXPECT_GE(xb.nodal_updates_applied(), 1u);
  (void)xb.column_currents(x);

  fault::FaultMap map(8, 8);
  // kOpen pins at zero conductance, which no programmed/aged cell holds, so
  // the patch is guaranteed non-empty.
  map.set_cell(1, 1, fault::CellFault::kOpen);
  const std::size_t before = xb.nodal_updates_applied();
  xb.apply_fault_map(map);
  EXPECT_TRUE(xb.nodal_factorized()) << "small fault map must update in place";
  EXPECT_GT(xb.nodal_updates_applied(), before);

  xb.program_stochastic_hrs();
  EXPECT_FALSE(xb.nodal_factorized()) << "stochastic reprogram must invalidate";
  (void)xb.column_currents(x);
  EXPECT_TRUE(xb.nodal_factorized());
  EXPECT_EQ(xb.nodal_updates_applied(), 0u);  // fresh factor, no updates yet
}

TEST_F(NodalTest, IncrementalUpdatesMatchFreshFactorizationAfterRandomPatches) {
  // Drive one instance through a random sequence of small mutations — the
  // kind the incremental path absorbs as rank-1 up/down-dates — and after
  // every step compare its readout against a fresh instance that programs
  // the same conductances and factorizes from scratch.  The sequence is long
  // enough to also cross the accumulated-update cap, so the decline +
  // rebuild path is exercised too.
  auto cfg = quiet_config(24, 16);
  Rng rng(61);
  xbar::Crossbar xb(cfg, rng);
  xb.program_conductances(mixed_conductances(24, 16, cfg.rram, 71));
  const std::vector<double> x = ramp_input(24);
  (void)xb.column_currents(x);  // factorize the initial state
  ASSERT_TRUE(xb.nodal_factorized());

  const auto& p = cfg.rram;
  Rng mut(73);
  bool saw_incremental = false;
  for (int step = 0; step < 12; ++step) {
    const double pick = mut.uniform();
    if (pick < 0.4) {
      // Partial re-program of one or two cells.
      std::vector<xbar::CellDelta> patch;
      const std::size_t cells = 1 + (mut.uniform() < 0.5 ? 1 : 0);
      for (std::size_t k = 0; k < cells; ++k)
        patch.push_back({static_cast<std::size_t>(mut.uniform() * 24) % 24,
                         static_cast<std::size_t>(mut.uniform() * 16) % 16,
                         mut.uniform(p.g_min, p.g_max)});
      xb.program_cells(patch);
    } else if (pick < 0.7) {
      xb.inject_stuck_fault(static_cast<std::size_t>(mut.uniform() * 24) % 24,
                            static_cast<std::size_t>(mut.uniform() * 16) % 16,
                            mut.uniform(p.g_min, p.g_max));
    } else {
      xb.age(1.0);  // oversized patch: forces a decline + rebuild
    }
    if (xb.nodal_factorized() && xb.nodal_updates_applied() > 0) saw_incremental = true;

    xbar::SolveStatus s;
    const auto i_inc = xb.column_currents(x, s);
    ASSERT_TRUE(s.converged) << "step " << step;

    // Reference: program the identical conductances into a fresh instance
    // (no variation, all values in the programmable range) and factorize
    // cold.  Both solves meet the same residual tolerance.
    MatrixD ref_g(24, 16);
    for (std::size_t r = 0; r < 24; ++r)
      for (std::size_t c = 0; c < 16; ++c) ref_g(r, c) = xb.conductance(r, c);
    Rng ref_rng(999);
    xbar::Crossbar fresh(cfg, ref_rng);
    fresh.program_conductances(ref_g);
    xbar::SolveStatus fs;
    const auto i_ref = fresh.column_currents(x, fs);
    ASSERT_TRUE(fs.converged) << "step " << step;
    expect_currents_close(i_inc, i_ref);
  }
  EXPECT_TRUE(saw_incremental) << "sequence never exercised the update path";
}

TEST_F(NodalTest, ReadoutAfterReprogramMatchesFreshInstance) {
  // The cached factorization must never leak stale conductances: reprogram
  // and compare against an instance that only ever saw the second state.
  auto cfg = quiet_config(12, 12);
  const MatrixD g1 = mixed_conductances(12, 12, cfg.rram, 31);
  const MatrixD g2 = mixed_conductances(12, 12, cfg.rram, 32);
  const std::vector<double> x = ramp_input(12);

  Rng r1(9);
  xbar::Crossbar reused(cfg, r1);
  reused.program_conductances(g1);
  (void)reused.column_currents(x);  // factorize against g1
  reused.program_conductances(g2);
  const auto i_reused = reused.column_currents(x);

  Rng r2(9);
  xbar::Crossbar fresh(cfg, r2);
  fresh.program_conductances(g1);  // same RNG consumption, no readout
  fresh.program_conductances(g2);
  const auto i_fresh = fresh.column_currents(x);

  for (std::size_t c = 0; c < 12; ++c) EXPECT_EQ(i_reused[c], i_fresh[c]) << "column " << c;
}

// ---- batched readout --------------------------------------------------------

MatrixD batch_inputs(std::size_t batch, std::size_t rows, std::uint64_t seed) {
  MatrixD xs(batch, rows);
  Rng rng(seed);
  for (double& v : xs.data()) v = rng.uniform();
  return xs;
}

TEST_F(NodalTest, BatchedReadoutBitIdenticalToSequentialSingles) {
  // Direct path, then Gauss-Seidel only (a zero memory cap declines the
  // factor, so every row takes the index-ordered fallback loop), each at 1
  // and 8 lanes.
  for (const std::size_t max_bytes : {std::size_t{256} << 20, std::size_t{0}}) {
    for (const std::size_t threads : {1u, 8u}) {
      set_parallel_threads(threads);
      auto cfg = quiet_config(16, 16);
      cfg.read_noise_rel = 0.005;  // noise on: the RNG draw order is part of the contract
      cfg.nodal_direct_max_bytes = max_bytes;
      const MatrixD g = mixed_conductances(16, 16, cfg.rram, 41);
      const MatrixD xs = batch_inputs(5, 16, 42);

      Rng r1(13);
      xbar::Crossbar batched(cfg, r1);
      batched.program_conductances(g);
      std::vector<xbar::SolveStatus> statuses;
      const MatrixD out = batched.readout_batch(xs, &statuses);
      ASSERT_EQ(statuses.size(), 5u);

      Rng r2(13);
      xbar::Crossbar single(cfg, r2);
      single.program_conductances(g);
      for (std::size_t b = 0; b < xs.rows(); ++b) {
        const std::vector<double> x(xs.row_data(b), xs.row_data(b) + 16);
        xbar::SolveStatus s;
        const auto i = single.column_currents(x, s);
        EXPECT_EQ(statuses[b].direct, max_bytes != 0) << "row " << b;
        EXPECT_TRUE(statuses[b].converged) << "row " << b;
        EXPECT_EQ(statuses[b].iterations, s.iterations) << "row " << b;
        for (std::size_t c = 0; c < 16; ++c)
          EXPECT_EQ(out(b, c), i[c]) << "cap " << max_bytes << " lanes " << threads
                                     << " batch row " << b << " column " << c;
      }
    }
  }
}

TEST_F(NodalTest, BatchedReadoutBitIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads, std::size_t max_bytes) {
    set_parallel_threads(threads);
    auto cfg = quiet_config(32, 32);
    cfg.nodal_direct_max_bytes = max_bytes;
    Rng rng(17);
    xbar::Crossbar xb(cfg, rng);
    xb.program_conductances(mixed_conductances(32, 32, cfg.rram, 51));
    return xb.readout_batch(batch_inputs(9, 32, 52));
  };
  // Direct path, then Gauss-Seidel only.
  for (const std::size_t max_bytes : {std::size_t{256} << 20, std::size_t{0}}) {
    const MatrixD out_1t = run(1, max_bytes);
    const MatrixD out_8t = run(8, max_bytes);
    ASSERT_EQ(out_1t.size(), out_8t.size());
    for (std::size_t i = 0; i < out_1t.size(); ++i)
      EXPECT_EQ(out_1t.data()[i], out_8t.data()[i]) << "cap " << max_bytes << " flat index " << i;
  }
}

TEST_F(NodalTest, BatchedReadoutCoversAllIrDropModes) {
  for (const auto mode :
       {xbar::IrDropMode::kNone, xbar::IrDropMode::kAnalytic, xbar::IrDropMode::kNodal}) {
    auto cfg = quiet_config(8, 8);
    cfg.ir_drop = mode;
    cfg.read_noise_rel = 0.01;
    const MatrixD g = mixed_conductances(8, 8, cfg.rram, 61);
    const MatrixD xs = batch_inputs(4, 8, 62);

    Rng r1(19);
    xbar::Crossbar batched(cfg, r1);
    batched.program_conductances(g);
    const MatrixD out = batched.readout_batch(xs);

    Rng r2(19);
    xbar::Crossbar single(cfg, r2);
    single.program_conductances(g);
    for (std::size_t b = 0; b < xs.rows(); ++b) {
      const std::vector<double> x(xs.row_data(b), xs.row_data(b) + 8);
      const auto i = single.column_currents(x);
      for (std::size_t c = 0; c < 8; ++c)
        EXPECT_EQ(out(b, c), i[c]) << to_string(mode) << " row " << b << " col " << c;
    }
  }
}

TEST_F(NodalTest, BatchedMvmBitIdenticalToSequentialMvm) {
  auto cfg = quiet_config(16, 16);
  cfg.read_noise_rel = 0.005;
  MatrixD w(16, 8);
  Rng wfill(71);
  for (double& v : w.data()) v = wfill.uniform(-1.0, 1.0);
  const MatrixD xs = batch_inputs(4, 16, 72);

  Rng r1(23);
  xbar::Crossbar batched(cfg, r1);
  batched.program_weights(w);
  const MatrixD out = batched.mvm_batch(xs);
  ASSERT_EQ(out.cols(), 8u);

  Rng r2(23);
  xbar::Crossbar single(cfg, r2);
  single.program_weights(w);
  for (std::size_t b = 0; b < xs.rows(); ++b) {
    const std::vector<double> x(xs.row_data(b), xs.row_data(b) + 16);
    const auto y = single.mvm(x);
    for (std::size_t j = 0; j < 8; ++j) EXPECT_EQ(out(b, j), y[j]) << b << ',' << j;
  }
}

// ---- Gauss-Seidel fallback ---------------------------------------------------

TEST_F(NodalTest, MemoryCapFallsBackToGaussSeidel) {
  auto cfg = quiet_config(16, 16);
  cfg.nodal_direct_max_bytes = 64;  // below any real factor size
  Rng rng(29);
  xbar::Crossbar xb(cfg, rng);
  xb.program_conductances(mixed_conductances(16, 16, cfg.rram, 81));
  xbar::SolveStatus s;
  (void)xb.column_currents(ramp_input(16), s);
  EXPECT_FALSE(s.direct);
  EXPECT_TRUE(s.converged);
  EXPECT_GT(s.iterations, 0u);
  EXPECT_FALSE(xb.nodal_factorized());
}

TEST_F(NodalTest, GaussSeidelAnswerDoesNotDependOnEarlierQueries) {
  // Gauss-Seidel is a pure cold-start function of the conductances and the
  // query: reading a query after unrelated ones gives the same bytes and the
  // same sweep count as reading it first.
  auto cfg = quiet_config(32, 32);
  cfg.nodal_direct_max_bytes = 0;  // decline the factor: Gauss-Seidel only
  Rng rng(31);
  xbar::Crossbar xb(cfg, rng);
  xb.program_conductances(mixed_conductances(32, 32, cfg.rram, 91));
  const std::vector<double> x = ramp_input(32);
  xbar::SolveStatus first, again;
  const auto i_first = xb.column_currents(x, first);
  (void)xb.readout_batch(batch_inputs(3, 32, 92));
  (void)xb.column_currents(std::vector<double>(32, 1.0));
  const auto i_again = xb.column_currents(x, again);
  ASSERT_TRUE(first.converged);
  ASSERT_TRUE(again.converged);
  EXPECT_FALSE(again.direct);
  EXPECT_EQ(again.iterations, first.iterations);
  EXPECT_EQ(std::memcmp(&again.residual, &first.residual, sizeof(double)), 0);
  ASSERT_EQ(i_again.size(), i_first.size());
  EXPECT_EQ(std::memcmp(i_again.data(), i_first.data(), i_first.size() * sizeof(double)), 0);
}

TEST_F(NodalTest, PerCallStatusReflectsDirectSolve) {
  auto cfg = quiet_config(8, 8);
  Rng rng(37);
  xbar::Crossbar xb(cfg, rng);
  xb.program_conductances(mixed_conductances(8, 8, cfg.rram, 101));
  xbar::SolveStatus s;
  (void)xb.column_currents(ramp_input(8), s);
  EXPECT_TRUE(s.direct);
  EXPECT_TRUE(s.converged);
  EXPECT_FALSE(s.used_fallback);
  EXPECT_EQ(s.iterations, 0u);
  EXPECT_LT(s.residual, xbar::kNodalTolRel * cfg.read_voltage);
}

TEST_F(NodalTest, UpdateCellsPivotBreakdownResetsSolver) {
  // Force the C1 downdate breakdown path.  Cycling one cell between a tiny
  // and an enormous conductance on a grid whose pivots are themselves tiny
  // accumulates floating-point drift of order g_hi * eps per up/down pair —
  // far above the ~1e-9 pivot scale — so a downdated pivot eventually goes
  // non-positive and update_cells() must reset the solver rather than hand
  // back a poisoned factor.
  const std::size_t n = 8;
  const double g_lo = 1e-9, g_hi = 1e8, g_wire = 1e-9;
  const MatrixD g(n, n, g_lo);
  xbar::NodalSolver solver;
  ASSERT_TRUE(solver.factorize(g, g_wire, std::size_t{1} << 30));

  bool broke = false;
  std::size_t cycles = 0;
  for (; cycles < 5000 && !broke; ++cycles) {
    const xbar::CellDelta up{3, 4, g_hi};
    if (!solver.update_cells(&up, 1)) {
      broke = true;
      break;
    }
    const xbar::CellDelta down{3, 4, g_lo};
    if (!solver.update_cells(&down, 1)) broke = true;
  }
  ASSERT_TRUE(broke) << "no pivot breakdown after " << cycles << " up/down cycles";
  EXPECT_FALSE(solver.ready());  // reset, not silently kept

  // Recovery: the same instance refactorizes from the true conductances and
  // answers bit-identically to a solver that never saw an update.
  ASSERT_TRUE(solver.factorize(g, g_wire, std::size_t{1} << 30));
  xbar::NodalSolver reference;
  ASSERT_TRUE(reference.factorize(g, g_wire, std::size_t{1} << 30));
  const std::vector<double> x = ramp_input(n);
  std::vector<double> i_recovered(n), i_reference(n);
  xbar::NodalSolver::Workspace ws_a, ws_b;
  solver.solve(x.data(), i_recovered.data(), ws_a);
  reference.solve(x.data(), i_reference.data(), ws_b);
  for (std::size_t c = 0; c < n; ++c) EXPECT_EQ(i_recovered[c], i_reference[c]) << "column " << c;
}

TEST_F(NodalTest, RepeatedProgramCellsCyclesStayCorrectThroughDeclines) {
  // Crossbar-level refactorize-and-retry net: hammer one cell with
  // program_cells() cycles.  The accumulation cap (bw/2) periodically
  // declines the patch and drops the cached factorization, and any numeric
  // trouble in an accepted update does the same — either way the next
  // readout must rebuild and answer like a freshly-programmed array.
  auto cfg = quiet_config(12, 12);
  Rng rng(71);
  xbar::Crossbar xb(cfg, rng);
  xb.program_conductances(mixed_conductances(12, 12, cfg.rram, 131));

  const std::vector<double> x = ramp_input(12);
  (void)xb.column_currents(x);  // build the factorization once
  for (int cycle = 0; cycle < 64; ++cycle) {
    const double target = (cycle % 2 == 0) ? cfg.rram.g_max : cfg.rram.g_min;
    const std::vector<xbar::CellDelta> patch{{5, 7, target}};
    xb.program_cells(patch);
    (void)xb.column_currents(x);  // keep the update/decline machinery hot
  }

  xbar::SolveStatus status;
  const auto i_survivor = xb.column_currents(x, status);
  EXPECT_TRUE(status.converged);

  // Fresh array programmed with the survivor's exact final conductances.
  Rng rng2(72);
  xbar::Crossbar fresh(cfg, rng2);
  MatrixD g_final(12, 12, 0.0);
  for (std::size_t r = 0; r < 12; ++r)
    for (std::size_t c = 0; c < 12; ++c) g_final(r, c) = xb.conductance(r, c);
  fresh.program_conductances(g_final);
  expect_currents_close(i_survivor, fresh.column_currents(x));
}

TEST_F(NodalTest, ConcurrentReadoutsOnSharedInstanceAgree) {
  // The parallel evaluator shares const arrays across worker threads: many
  // threads race to build the factorization (exactly once, under the cache
  // mutex).  With read noise off, every thread must see the same currents.
  set_parallel_threads(8);
  auto cfg = quiet_config(16, 16);
  Rng rng(53);
  xbar::Crossbar xb(cfg, rng);
  xb.program_conductances(mixed_conductances(16, 16, cfg.rram, 111));
  const std::vector<double> x = ramp_input(16);
  const auto reference = xb.column_currents(x);

  xb.program_conductances(mixed_conductances(16, 16, cfg.rram, 112));  // invalidate
  std::vector<std::vector<double>> results(16);
  parallel_for(16, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) results[i] = xb.column_currents(x);
  });
  for (std::size_t i = 1; i < results.size(); ++i)
    for (std::size_t c = 0; c < results[i].size(); ++c)
      EXPECT_EQ(results[i][c], results[0][c]) << "thread result " << i << " column " << c;
  EXPECT_TRUE(xb.nodal_factorized());
  (void)reference;
}

// ---- NodalSolver unit behaviour ---------------------------------------------

TEST_F(NodalTest, SolverDeclinesDegenerateInputs) {
  xbar::NodalSolver solver;
  EXPECT_FALSE(solver.factorize(MatrixD{}, 1.0, 1u << 20));
  MatrixD g(4, 4, 1e-5);
  EXPECT_FALSE(solver.factorize(g, 0.0, 1u << 20));  // no wire conductance
  EXPECT_FALSE(solver.factorize(g, 1.0, 8));         // memory cap
  EXPECT_FALSE(solver.ready());
  EXPECT_TRUE(solver.factorize(g, 1.0, 1u << 20));
  EXPECT_TRUE(solver.ready());
  EXPECT_EQ(solver.node_count(), 32u);
  solver.reset();
  EXPECT_FALSE(solver.ready());
}

TEST_F(NodalTest, SolverIsBitwiseDeterministicAcrossInstances) {
  MatrixD g(16, 12, 1e-5);
  Rng fill(7);
  for (double& v : g.data()) v = fill.uniform(1e-6, 1e-4);
  const std::vector<double> v_in = ramp_input(16);

  xbar::NodalSolver s1, s2;
  ASSERT_TRUE(s1.factorize(g, 2.0e3, 1u << 24));
  ASSERT_TRUE(s2.factorize(g, 2.0e3, 1u << 24));
  std::vector<double> i1(12), i2(12);
  xbar::NodalSolver::Workspace w1, w2;
  const auto r1 = s1.solve(v_in.data(), i1.data(), w1);
  const auto r2 = s2.solve(v_in.data(), i2.data(), w2);
  EXPECT_EQ(r1.residual, r2.residual);
  for (std::size_t c = 0; c < 12; ++c) EXPECT_EQ(i1[c], i2[c]);
}

// ---- lane-blocked multi-RHS substitution ------------------------------------

// solve_block(k inputs) must reproduce k solve() calls byte for byte: the
// currents and the residuals, for every block fill k = 1..kMaxBlock.
void expect_block_matches_singles(const xbar::NodalSolver& solver, std::uint64_t seed) {
  const std::size_t rows = solver.rows(), cols = solver.cols();
  constexpr std::size_t kMax = xbar::NodalSolver::kMaxBlock;
  Rng fill(seed);
  std::vector<double> v_in(kMax * rows);
  for (double& v : v_in) v = fill.uniform(0.0, 0.2);
  for (std::size_t k = 1; k <= kMax; ++k) {
    std::vector<double> i_block(k * cols, -1.0), i_single(k * cols, -2.0);
    std::vector<xbar::NodalSolver::Result> r_block(k), r_single(k);
    xbar::NodalSolver::Workspace ws_block, ws_single;
    solver.solve_block(v_in.data(), i_block.data(), r_block.data(), k, ws_block);
    for (std::size_t j = 0; j < k; ++j)
      r_single[j] = solver.solve(v_in.data() + j * rows, i_single.data() + j * cols, ws_single);
    EXPECT_EQ(std::memcmp(i_block.data(), i_single.data(), k * cols * sizeof(double)), 0)
        << rows << 'x' << cols << " currents differ at k = " << k;
    for (std::size_t j = 0; j < k; ++j)
      EXPECT_EQ(std::memcmp(&r_block[j].residual, &r_single[j].residual, sizeof(double)), 0)
          << rows << 'x' << cols << " residual of input " << j << " differs at k = " << k;
  }
}

class SolveBlockShapeTest : public NodalTest, public ::testing::WithParamInterface<ShapeCase> {};

TEST_P(SolveBlockShapeTest, BitIdenticalToSingleSolves) {
  const auto [rows, cols] = GetParam();
  const device::RramParams p;
  const MatrixD g = mixed_conductances(rows, cols, p, 211 + rows * 17 + cols);
  xbar::NodalSolver solver;
  ASSERT_TRUE(solver.factorize(g, 2.2, std::size_t{1} << 30));
  expect_block_matches_singles(solver, 301 + rows + cols);
}

TEST_P(SolveBlockShapeTest, BitIdenticalAfterIncrementalUpdates) {
  // A factor patched by rank-1 up/down-dates is a different set of bytes
  // than a fresh one; the blocked pass must still track solve() exactly.
  const auto [rows, cols] = GetParam();
  const device::RramParams p;
  const MatrixD g = mixed_conductances(rows, cols, p, 223 + rows * 17 + cols);
  xbar::NodalSolver solver;
  ASSERT_TRUE(solver.factorize(g, 2.2, std::size_t{1} << 30));
  Rng pick(227);
  std::vector<xbar::CellDelta> patch;
  for (int i = 0; i < 3; ++i)
    patch.push_back({static_cast<std::size_t>(pick.uniform() * rows) % rows,
                     static_cast<std::size_t>(pick.uniform() * cols) % cols,
                     pick.uniform(p.g_min, p.g_max)});
  ASSERT_TRUE(solver.update_cells(patch.data(), patch.size()));
  ASSERT_GT(solver.updates_applied(), 0u);
  expect_block_matches_singles(solver, 307 + rows + cols);
}

// Square, tall (cells ordered row-major) and wide (column-major) arrays.
INSTANTIATE_TEST_SUITE_P(Shapes, SolveBlockShapeTest,
                         ::testing::Values(ShapeCase{1, 1}, ShapeCase{3, 7}, ShapeCase{16, 16},
                                           ShapeCase{64, 64}, ShapeCase{128, 64},
                                           ShapeCase{32, 128}),
                         [](const ::testing::TestParamInfo<ShapeCase>& info) {
                           return std::to_string(info.param.rows) + "x" +
                                  std::to_string(info.param.cols);
                         });

// ---- golden pins --------------------------------------------------------------

// FNV-1a hashes of the currents and residuals of 8 inputs read through solve()
// and solve_block(), recorded from the scalar row-by-row factor and the
// two-lane substitution before the lane-blocked kernels replaced them.  A
// factor or substitution that reorders a single floating-point operation
// changes a hash.  Each state exercises a different corner of the factor:
// open cells assemble -0.0 couplings, stuck cells mix 0, g_min and g_max,
// aged cells carry non-level conductances, and `updated` hashes a factor that
// rank-1 up/down-dates rewrote after factorize().
enum class PinState { kFresh, kOpen, kStuck, kAged, kUpdated };
constexpr std::size_t kPinStates = 5;
constexpr double kPinWire = 2.2;  // S per segment

MatrixD pin_conductances(std::size_t rows, std::size_t cols, PinState state) {
  const device::RramParams p;
  MatrixD g = mixed_conductances(rows, cols, p, 401 + rows * 31 + cols);
  Rng pick(409 + rows + cols);
  switch (state) {
    case PinState::kOpen:
      for (std::size_t i = 0; i < g.data().size(); ++i)
        if (i % 3 == 0) g.data()[i] = 0.0;
      break;
    case PinState::kStuck:
      for (double& v : g.data()) {
        const double u = pick.uniform();
        if (u < 0.1) v = p.g_max;
        else if (u < 0.2) v = p.g_min;
        else if (u < 0.25) v = 0.0;
      }
      break;
    case PinState::kAged: {
      const device::RramModel model(p);
      for (double& v : g.data()) v = model.relax(v, 3600.0, pick);
      break;
    }
    default: break;
  }
  return g;
}

bool pin_factorize(xbar::NodalSolver& solver, std::size_t rows, std::size_t cols,
                   PinState state) {
  if (!solver.factorize(pin_conductances(rows, cols, state), kPinWire, std::size_t{1} << 30))
    return false;
  if (state != PinState::kUpdated) return true;
  const device::RramParams p;
  Rng pick(419 + rows * 7 + cols);
  std::vector<xbar::CellDelta> patch;
  for (int i = 0; i < 4; ++i)
    patch.push_back({static_cast<std::size_t>(pick.uniform() * rows) % rows,
                     static_cast<std::size_t>(pick.uniform() * cols) % cols,
                     i == 0 ? 0.0 : pick.uniform(p.g_min, p.g_max)});
  return solver.update_cells(patch.data(), patch.size()) && solver.updates_applied() > 0;
}

// Hash of 8 inputs read in blocks of `lanes` (1 = single solve() calls).
std::uint64_t pin_hash(const xbar::NodalSolver& solver, std::size_t lanes) {
  constexpr std::size_t kInputs = 8;
  const std::size_t rows = solver.rows(), cols = solver.cols();
  Rng fill(431 + rows + cols);
  std::vector<double> v_in(kInputs * rows), i_col(kInputs * cols);
  for (double& v : v_in) v = fill.uniform(0.0, 0.2);
  std::vector<xbar::NodalSolver::Result> res(kInputs);
  xbar::NodalSolver::Workspace ws;
  for (std::size_t j = 0; j < kInputs; j += lanes) {
    if (lanes == 1)
      res[j] = solver.solve(v_in.data() + j * rows, i_col.data() + j * cols, ws);
    else
      solver.solve_block(v_in.data() + j * rows, i_col.data() + j * cols, res.data() + j,
                         lanes, ws);
  }
  std::uint64_t h = util::fnv1a64(i_col.data(), i_col.size() * sizeof(double));
  for (const auto& r : res) h = util::fnv1a64(&r.residual, sizeof r.residual, h);
  return h;
}

struct PinCase {
  std::size_t rows, cols;
  std::uint64_t hash[kPinStates];  // fresh, open, stuck, aged, updated
};

class NodalGoldenPins : public NodalTest, public ::testing::WithParamInterface<PinCase> {};

TEST_P(NodalGoldenPins, CurrentsAndResidualsMatchRecordedHashes) {
  const PinCase& pin = GetParam();
  for (std::size_t s = 0; s < kPinStates; ++s) {
    xbar::NodalSolver solver;
    ASSERT_TRUE(pin_factorize(solver, pin.rows, pin.cols, static_cast<PinState>(s)))
        << "state " << s;
    for (std::size_t lanes : {1u, 4u, 8u})
      EXPECT_EQ(pin_hash(solver, lanes), pin.hash[s])
          << pin.rows << 'x' << pin.cols << " state " << s << " lanes " << lanes << ": 0x"
          << std::hex << pin_hash(solver, lanes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NodalGoldenPins,
    ::testing::Values(
        PinCase{1, 1,
                {0x461d53eb4c468446ull, 0x8421ae126c7ced25ull, 0x461d53eb4c468446ull,
                 0xd34c89fde2c82a34ull, 0x897154549503ce4dull}},
        PinCase{3, 7,
                {0x36bdfe26203717d5ull, 0x808255c6d153ea9eull, 0x4f45a87894a102beull,
                 0x79500e1e262b4bf6ull, 0xc87c656819c2d193ull}},
        PinCase{16, 16,
                {0xf8da0ce24074897full, 0x96a2995256ae49a9ull, 0x0e2d30416328d355ull,
                 0x6784a64076f66ebcull, 0x4b05e93fe2667257ull}},
        PinCase{64, 64,
                {0x9d1d04a95e4fff97ull, 0x83f97d6847231cbcull, 0x794a951046010743ull,
                 0xb988cc54e7e3a541ull, 0x1afbdde1ca7aa7e5ull}},
        PinCase{128, 64,
                {0x54ddfc08c4c6c4d8ull, 0xffcc30b92833b780ull, 0x5572e6aaa96457f1ull,
                 0x1d09d1df524a4468ull, 0x30743c721a28f546ull}},
        PinCase{32, 128,
                {0x5752a4f509ba2d01ull, 0x5d41df99460ba995ull, 0xfb3f29e26917ff17ull,
                 0x8d20db3f66ec4e0dull, 0x60f23e4ead45be28ull}}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::to_string(info.param.rows) + "x" + std::to_string(info.param.cols);
    });

// Every factor kernel width writes the same bytes: the scalar row-by-row
// reference (1 lane), SSE2 (2) and, where the CPU has it, AVX2 (4).  The
// envelopes cover both cell orders, open cells (-0.0 couplings), groups cut
// short at the array's end and arrays too narrow for more than one lane.
TEST_F(NodalTest, FactorKernelWidthsWriteIdenticalBytes) {
  std::vector<std::size_t> widths = {2};
  if (xbar::NodalSolver::kernel_lanes() == 4) widths.push_back(4);
  const ShapeCase shapes[] = {{1, 1}, {1, 9}, {9, 1}, {2, 5}, {3, 7}, {16, 16},
                              {64, 64}, {128, 64}, {32, 128}, {20, 37}};
  for (const auto [rows, cols] : shapes) {
    for (std::size_t s = 0; s + 1 < kPinStates; ++s) {
      const MatrixD g = pin_conductances(rows, cols, static_cast<PinState>(s));
      xbar::NodalSolver ref;
      ASSERT_TRUE(ref.factorize(g, kPinWire, std::size_t{1} << 30, 1));
      for (std::size_t w : widths) {
        xbar::NodalSolver wide;
        ASSERT_TRUE(wide.factorize(g, kPinWire, std::size_t{1} << 30, w));
        ASSERT_EQ(wide.factor_values().size(), ref.factor_values().size());
        EXPECT_EQ(std::memcmp(wide.factor_values().data(), ref.factor_values().data(),
                              ref.factor_bytes()),
                  0)
            << rows << 'x' << cols << " state " << s << ": width " << w
            << " factor differs from the scalar reference";
      }
    }
  }
  xbar::NodalSolver solver;
  if (xbar::NodalSolver::kernel_lanes() != 4) {
    EXPECT_THROW(solver.factorize(MatrixD(4, 4, 1e-5), 1.0, 1u << 20, 4), PreconditionError);
  }
  EXPECT_THROW(solver.factorize(MatrixD(4, 4, 1e-5), 1.0, 1u << 20, 3), PreconditionError);
}

TEST_F(NodalTest, SolveBlockRejectsEmptyAndOversizedBlocks) {
  xbar::NodalSolver solver;
  ASSERT_TRUE(solver.factorize(MatrixD(4, 4, 1e-5), 1.0, 1u << 20));
  std::vector<double> v_in(9 * 4, 0.1), i_col(9 * 4);
  xbar::NodalSolver::Result res[9];
  xbar::NodalSolver::Workspace ws;
  EXPECT_THROW(solver.solve_block(v_in.data(), i_col.data(), res, 0, ws), PreconditionError);
  EXPECT_THROW(solver.solve_block(v_in.data(), i_col.data(), res, 9, ws), PreconditionError);
}

TEST_F(NodalTest, BatchedDriftRetryMidBlockMatchesSequentialSingles) {
  // A factor that drifted under incremental updates is caught by the
  // residual check of the first input whose residual misses the tolerance;
  // from there the sequential path refactorizes once and every later input
  // sees the fresh factor.  Here that first miss is input 11 of 16, so the
  // re-solved tail starts mid-way through the second block of 8.
  //
  // Extreme conductances make the drift visible after a single up/down
  // pair: a 1e2 S excursion on a 1e-9 S network leaves a round-off residue
  // of order 1e2 * eps in pivots of order 1e-9, well short of breakdown.
  // The residual it leaves scales with the input: about 1.7e-6 per volt,
  // so inputs 0..10 (at most 4 mV after the 8-bit DAC) stay under the
  // 2e-8 V tolerance on the drifted factor and input 11 (>= 100 mV) does not.
  auto cfg = quiet_config(8, 8);
  cfg.rram.g_min = 1e-9;
  cfg.rram.g_max = 1e2;
  cfg.cell_pitch_f = 1e9 / (2.8e6 * 40e-9);  // 40 nm wire: ~1 GOhm per segment
  cfg.dac.bits = 8;
  constexpr std::size_t kBatch = 16, kFirstBad = 11;
  static_assert(kFirstBad % xbar::NodalSolver::kMaxBlock != 0);
  MatrixD xs(kBatch, 8, 0.0);
  Rng fill(233);
  for (std::size_t b = 0; b < kBatch; ++b)
    for (std::size_t r = 0; r < 8; ++r)
      xs(b, r) = b < kFirstBad ? fill.uniform(0.0, 0.02) : fill.uniform(0.5, 1.0);

  const auto drifted = [&](Rng& rng) {
    auto xb = std::make_unique<xbar::Crossbar>(cfg, rng);
    xb->program_conductances(MatrixD(8, 8, cfg.rram.g_min));
    (void)xb->column_currents(std::vector<double>(8, 0.0));  // factorize
    xb->program_cells({{3, 4, cfg.rram.g_max}});
    xb->program_cells({{3, 4, cfg.rram.g_min}});
    return xb;
  };

  Rng r1(239), r2(239);
  const auto batched = drifted(r1);
  const auto single = drifted(r2);
  ASSERT_EQ(batched->nodal_updates_applied(), 2u);

  const std::uint64_t before = core::Profiler::nodal().drift_refactorizations;
  std::vector<xbar::SolveStatus> statuses;
  const MatrixD out = batched->readout_batch(xs, &statuses);
  EXPECT_EQ(core::Profiler::nodal().drift_refactorizations - before, 1u)
      << "the drift retry did not fire exactly once";
  EXPECT_EQ(batched->nodal_updates_applied(), 0u);  // the fresh factor replaced it
  for (std::size_t b = 0; b < kBatch; ++b) {
    EXPECT_TRUE(statuses[b].direct) << "row " << b;
    EXPECT_TRUE(statuses[b].converged) << "row " << b;
  }

  for (std::size_t b = 0; b < kBatch; ++b) {
    const std::vector<double> x(xs.row_data(b), xs.row_data(b) + 8);
    xbar::SolveStatus s;
    const auto i = single->column_currents(x, s);
    EXPECT_EQ(std::memcmp(out.row_data(b), i.data(), 8 * sizeof(double)), 0) << "row " << b;
    EXPECT_EQ(std::memcmp(&statuses[b].residual, &s.residual, sizeof(double)), 0)
        << "row " << b;
  }
}

// ---- downstream batch users -------------------------------------------------

TEST_F(NodalTest, TiledBatchBitIdenticalToSequentialMvm) {
  xbar::TiledConfig tcfg;
  tcfg.tile = quiet_config(16, 16);
  tcfg.tile.read_noise_rel = 0.005;
  Rng r1(41), r2(41);
  xbar::TiledCrossbar batched(tcfg, 24, 12, r1);
  xbar::TiledCrossbar single(tcfg, 24, 12, r2);
  MatrixD w(24, 12);
  Rng wfill(43);
  for (double& v : w.data()) v = wfill.uniform(-1.0, 1.0);
  batched.program_weights(w);
  single.program_weights(w);

  const MatrixD xs = batch_inputs(3, 24, 44);
  const MatrixD out = batched.mvm_batch(xs);
  for (std::size_t b = 0; b < xs.rows(); ++b) {
    const std::vector<double> x(xs.row_data(b), xs.row_data(b) + 24);
    const auto y = single.mvm(x);
    for (std::size_t j = 0; j < 12; ++j) EXPECT_EQ(out(b, j), y[j]) << b << ',' << j;
  }
}

TEST_F(NodalTest, LshHashBatchBitIdenticalToSequentialHash) {
  auto cfg = quiet_config(32, 32);
  cfg.read_noise_rel = 0.005;
  Rng r1(47), r2(47);
  mann::CrossbarLsh batched(cfg, 16, r1);
  mann::CrossbarLsh single(cfg, 16, r2);

  const MatrixD xs = batch_inputs(4, 32, 48);
  const auto sigs = batched.hash_batch(xs);
  ASSERT_EQ(sigs.size(), 4u);
  for (std::size_t b = 0; b < xs.rows(); ++b) {
    const std::vector<double> x(xs.row_data(b), xs.row_data(b) + 32);
    EXPECT_EQ(sigs[b], single.hash(x)) << "batch row " << b;
  }
}

}  // namespace
}  // namespace xlds
