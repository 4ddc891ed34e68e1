// Tests for the deterministic parallel execution layer: chunking/edge cases,
// exception propagation, and the core invariant — results are bit-identical
// regardless of the thread count — exercised on the Monte Carlo variation
// sweep, the red-black nodal solver and the full triage evaluate_all path —
// plus the pre-fork quiesce contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "core/design_space.hpp"
#include "core/evaluate.hpp"
#include "device/fefet.hpp"
#include "util/memo.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace xlds {
namespace {

/// Restores the pool to the environment default after each test so thread
/// overrides never leak across test cases.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

// ---- chunking / edge cases ---------------------------------------------------

TEST_F(ParallelTest, EmptyRangeNeverInvokesBody) {
  std::atomic<int> calls{0};
  parallel_for(0, 4, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE((parallel_map<int>(0, [](std::size_t i) { return static_cast<int>(i); }).empty()));
  EXPECT_EQ(parallel_sum(0, 4, [](std::size_t) { return 1.0; }), 0.0);
}

TEST_F(ParallelTest, RaggedLastChunkCoversWholeRange) {
  // n = 10, chunk = 4 -> chunks [0,4), [4,8), [8,10): boundaries are a pure
  // function of (n, chunk), never the thread count.
  std::vector<int> hits(10, 0);
  std::vector<std::size_t> chunk_of(10, 99);
  parallel_for(10, 4, [&](std::size_t begin, std::size_t end, std::size_t ci) {
    for (std::size_t i = begin; i < end; ++i) {
      ++hits[i];
      chunk_of[i] = ci;
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  const std::vector<std::size_t> expect = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2};
  EXPECT_EQ(chunk_of, expect);
}

TEST_F(ParallelTest, ChunkZeroSelectsDefaultChunk) {
  EXPECT_GE(default_parallel_chunk(1), 1u);
  const std::size_t n = 1000;
  const std::size_t chunk = default_parallel_chunk(n);
  std::vector<std::size_t> seen;
  parallel_for(n, 0, [&](std::size_t begin, std::size_t, std::size_t ci) {
    if (ci == 1) {
      // Chunk 1 must start exactly where the default chunk size says.
      EXPECT_EQ(begin, chunk);
    }
    (void)begin;
  });
  (void)seen;
}

TEST_F(ParallelTest, MapPreservesIndexOrder) {
  set_parallel_threads(8);
  const auto out = parallel_map<int>(257, [](std::size_t i) { return static_cast<int>(i * 3); });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i * 3));
}

TEST_F(ParallelTest, SetThreadsRoundTrip) {
  set_parallel_threads(3);
  EXPECT_EQ(parallel_thread_count(), 3u);
  set_parallel_threads(1);
  EXPECT_EQ(parallel_thread_count(), 1u);
}

// ---- exception propagation ---------------------------------------------------

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  set_parallel_threads(4);
  EXPECT_THROW(
      parallel_for(100, 5,
                   [&](std::size_t begin, std::size_t, std::size_t) {
                     if (begin == 50) throw std::runtime_error("chunk failure");
                   }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  EXPECT_EQ(parallel_sum(10, 3, [](std::size_t) { return 1.0; }), 10.0);
}

// ---- determinism: Monte Carlo variation sweep --------------------------------

/// The fig3g/fig2-style chunked MC sweep: per-chunk forked RNG streams,
/// per-chunk error counts combined in chunk order.
std::vector<std::size_t> mc_sweep_chunk_errors() {
  device::FeFetParams params;
  params.bits = 3;
  params.sigma_program = 0.094;
  const device::FeFetModel model(params);
  const int mid = params.levels() / 2;
  constexpr std::size_t kTrials = 20000;
  constexpr std::size_t kChunk = 500;
  Rng rng(7);
  std::vector<std::size_t> chunk_errors((kTrials + kChunk - 1) / kChunk, 0);
  parallel_for_rng(rng, kTrials, kChunk,
                   [&](Rng& trial_rng, std::size_t begin, std::size_t end, std::size_t ci) {
                     std::size_t errors = 0;
                     for (std::size_t t = begin; t < end; ++t)
                       if (model.readback_level(model.program_vth(mid, trial_rng)) != mid)
                         ++errors;
                     chunk_errors[ci] = errors;
                   });
  return chunk_errors;
}

TEST_F(ParallelTest, McSweepBitIdenticalAcrossThreadCounts) {
  set_parallel_threads(1);
  const auto serial = mc_sweep_chunk_errors();
  set_parallel_threads(8);
  const auto parallel = mc_sweep_chunk_errors();
  // Not just the same total: every per-chunk count matches, because each
  // chunk's RNG stream is a pure function of its chunk index.
  EXPECT_EQ(serial, parallel);
  const std::size_t total = std::accumulate(serial.begin(), serial.end(), std::size_t{0});
  EXPECT_GT(total, 0u);  // 3-bit cells at 94 mV do see level errors
}

// ---- determinism: red-black nodal solver -------------------------------------

TEST_F(ParallelTest, NodalSolveBitIdenticalAcrossThreadCounts) {
  const auto solve = [] {
    xbar::CrossbarConfig cfg;
    cfg.rows = 48;
    cfg.cols = 48;
    cfg.apply_variation = false;
    cfg.read_noise_rel = 0.0;
    cfg.ir_drop = xbar::IrDropMode::kNodal;
    // Pin the iterative path: this test is about the Gauss-Seidel sweep
    // (the direct solver answers in 0 iterations and is covered by
    // test_nodal's thread-invariance cases); a zero memory cap declines the
    // factor.
    cfg.nodal_direct_max_bytes = 0;
    Rng rng(11);
    xbar::Crossbar xb(cfg, rng);
    MatrixD g(48, 48, cfg.rram.g_min);
    Rng fill(12);
    for (double& v : g.data())
      if (fill.bernoulli(0.5)) v = cfg.rram.g_max;
    xb.program_conductances(g);
    const std::vector<double> ones(48, 1.0);
    xbar::SolveStatus status;
    auto currents = xb.column_currents(ones, status);
    return std::make_pair(std::move(currents), status.iterations);
  };
  set_parallel_threads(1);
  const auto [currents_1t, iters_1t] = solve();
  set_parallel_threads(8);
  const auto [currents_8t, iters_8t] = solve();
  ASSERT_EQ(currents_1t.size(), currents_8t.size());
  for (std::size_t c = 0; c < currents_1t.size(); ++c) {
    // Bitwise equality — the red-black sweep order is fixed, so the fixed
    // point and the path to it are thread-count independent.
    EXPECT_EQ(currents_1t[c], currents_8t[c]) << "column " << c;
  }
  EXPECT_EQ(iters_1t, iters_8t);
  EXPECT_GT(iters_1t, 0u);
}

// ---- determinism: full triage sweep (enumerate + evaluate_all) ---------------

bool fom_equal(const core::Fom& a, const core::Fom& b) {
  return a.latency == b.latency && a.energy == b.energy && a.area_mm2 == b.area_mm2 &&
         a.accuracy == b.accuracy && a.feasible == b.feasible && a.note == b.note;
}

TEST_F(ParallelTest, EvaluateAllBitIdenticalAcrossThreadCountsAndMatchesSerial) {
  const auto points = core::enumerate_design_space("isolet-like", /*include_culled=*/true);
  ASSERT_FALSE(points.empty());
  const auto profile = core::profile_for("isolet-like");
  const core::Evaluator ev;

  set_parallel_threads(1);
  const auto foms_1t = ev.evaluate_all(points, profile);
  set_parallel_threads(8);
  const auto foms_8t = ev.evaluate_all(points, profile);

  ASSERT_EQ(foms_1t.size(), points.size());
  ASSERT_EQ(foms_8t.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(fom_equal(foms_1t[i], foms_8t[i])) << "point " << i;
    // The batched path must agree with the one-point-at-a-time API.
    if (points[i].culled_because) {
      EXPECT_FALSE(foms_1t[i].feasible);
      EXPECT_EQ(foms_1t[i].note, *points[i].culled_because);
    } else {
      EXPECT_TRUE(fom_equal(foms_1t[i], ev.evaluate(points[i].point, profile)))
          << "point " << i;
    }
  }
}

// ---- memo caches -------------------------------------------------------------

TEST_F(ParallelTest, EvaluationCachesAreHitDuringSweeps) {
  const auto points = core::enumerate_design_space("isolet-like", /*include_culled=*/true);
  const auto profile = core::profile_for("isolet-like");

  // Every evaluated in-memory point looks up its device's tile cost (unless
  // it is CAM-only) and its CAM macro's Eva-CAM projection (if it has one).
  std::size_t tile_lookups = 0, cam_lookups = 0;
  std::set<device::DeviceKind> devices;
  std::unordered_set<evacam::CamDesignSpec, evacam::CamSpecHash> specs;
  for (const core::EnumeratedPoint& ep : points) {
    const core::DesignPoint& p = ep.point;
    if (ep.culled_because) continue;
    const bool cam = p.arch == core::ArchKind::kCamAccelerator ||
                     p.arch == core::ArchKind::kCamXbarHybrid;
    const bool xbar = p.arch == core::ArchKind::kCrossbarAccelerator ||
                      p.arch == core::ArchKind::kCamXbarHybrid;
    if (xbar) {
      ++tile_lookups;
      devices.insert(p.device);
    }
    if (cam) {
      ++cam_lookups;
      specs.insert(core::cam_spec_for_point(p, profile));
    }
  }
  ASSERT_GT(tile_lookups, devices.size());
  ASSERT_GT(cam_lookups, specs.size());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    set_parallel_threads(threads);
    // A new evaluator starts cold; the memos are single-flight, so a cold
    // sweep computes each distinct key exactly once at any lane count.
    const core::Evaluator ev;
    const auto first = ev.evaluate_all(points, profile);
    util::MemoStats tile = ev.tile_cost_stats(), cam = ev.cam_fom_stats();
    EXPECT_EQ(tile.lookups, tile_lookups) << threads << " threads";
    EXPECT_EQ(tile.hits, tile.lookups - devices.size()) << threads << " threads";
    EXPECT_EQ(cam.lookups, cam_lookups) << threads << " threads";
    EXPECT_EQ(cam.hits, cam.lookups - specs.size()) << threads << " threads";

    // A second identical sweep is a pure memo replay — and memoisation must
    // not change any result.
    const auto again = ev.evaluate_all(points, profile);
    tile = ev.tile_cost_stats();
    cam = ev.cam_fom_stats();
    EXPECT_EQ(tile.hits, tile.lookups - devices.size()) << threads << " threads";
    EXPECT_EQ(cam.hits, cam.lookups - specs.size()) << threads << " threads";
    ASSERT_EQ(first.size(), again.size());
    for (std::size_t i = 0; i < first.size(); ++i)
      EXPECT_TRUE(fom_equal(first[i], again[i])) << "point " << i;
  }
}

TEST(ForkSafety, QuiesceThenParallelRebuildsAndResultsAreUnchanged) {
  set_parallel_threads(4);
  const auto sum_squares = [] {
    return parallel_sum(1000, 0, [](std::size_t i) { return static_cast<double>(i * i); });
  };
  const double before = sum_squares();
  parallel_quiesce_for_fork();
  // The pool lazily rebuilds on the next call; values are unchanged.
  EXPECT_EQ(sum_squares(), before);
  parallel_quiesce_for_fork();
  parallel_quiesce_for_fork();  // idempotent
  EXPECT_EQ(sum_squares(), before);
  set_parallel_threads(0);
}

}  // namespace
}  // namespace xlds
