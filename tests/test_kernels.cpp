// Tests for the compute-kernel layer (src/kernels/).
//
// The layer's contract is equality, not approximation: packed Hamming must
// match the scalar digit/sign loops bit-for-bit, the tiled MVM must produce
// the exact doubles of the naive reference (same accumulation order), and the
// sequence-compatible samplers must consume the Rng exactly as the per-call
// loops they replace; the batched gemm_t must reproduce matvec_t_ref's bytes
// per sample.  Edge cases the packing must survive: dimensions that
// are not multiples of 64, zero-length vectors, and the all-ties sign vector.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "cam/types.hpp"
#include "device/fefet.hpp"
#include "kernels/bitpack.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/mvm.hpp"
#include "kernels/sampler.hpp"
#include "mann/lsh.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace xlds {
namespace {

using kernels::PackedBits;
using kernels::PackedTernary;

// ---- bitpack ---------------------------------------------------------------

TEST(Bitpack, PackUnpackRoundtripAtAwkwardDims) {
  // 1..130 covers: below one word, exactly one word (64), one-past (65),
  // exactly two words (128) and past (129, 130).
  Rng rng(42);
  for (std::size_t n = 1; n <= 130; ++n) {
    std::vector<int> d(n);
    for (auto& v : d) v = rng.bernoulli(0.5) ? 1 : 0;
    const PackedBits p = kernels::pack_bits(d);
    EXPECT_EQ(p.bits, n);
    EXPECT_EQ(p.words.size(), kernels::word_count(n));
    EXPECT_EQ(kernels::unpack_bits(p), d) << "dim " << n;
  }
}

TEST(Bitpack, TailBitsAreZero) {
  // 65 ones: word 1 must hold exactly one set bit, not garbage.
  const std::vector<int> d(65, 1);
  const PackedBits p = kernels::pack_bits(d);
  ASSERT_EQ(p.words.size(), 2u);
  EXPECT_EQ(p.words[0], ~std::uint64_t{0});
  EXPECT_EQ(p.words[1], std::uint64_t{1});
}

TEST(Bitpack, ZeroLengthVectors) {
  const PackedBits a = kernels::pack_bits(std::vector<int>{});
  const PackedBits b = kernels::pack_signs(std::vector<double>{});
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(kernels::hamming(a, b), 0u);
  EXPECT_EQ(kernels::sign_dot(a, b), 0);
  EXPECT_TRUE(kernels::unpack_bits(a).empty());
}

TEST(Bitpack, AllTiesPacksAsPositive) {
  // Sign convention: v >= 0 packs as 1, so the all-zero ("all ties") vector
  // is all-ones and its Hamming distance to an all-positive vector is 0.
  const std::vector<double> zeros(100, 0.0);
  const std::vector<double> pos(100, 1.0);
  const std::vector<double> neg(100, -1.0);
  EXPECT_EQ(kernels::hamming(kernels::pack_signs(zeros), kernels::pack_signs(pos)), 0u);
  EXPECT_EQ(kernels::hamming(kernels::pack_signs(zeros), kernels::pack_signs(neg)), 100u);
  EXPECT_EQ(kernels::sign_dot(kernels::pack_signs(zeros), kernels::pack_signs(pos)), 100);
}

TEST(Bitpack, PackedHammingMatchesScalarReference) {
  Rng rng(7);
  for (std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 1000u, 4096u}) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform(-1.0, 1.0);
      b[i] = rng.uniform(-1.0, 1.0);
    }
    const std::size_t ref = kernels::hamming_ref(a.data(), b.data(), n);
    const std::size_t packed =
        kernels::hamming(kernels::pack_signs(a), kernels::pack_signs(b));
    EXPECT_EQ(packed, ref) << "dim " << n;
    // sign_dot is the affine image n - 2h of the same popcount.
    EXPECT_EQ(kernels::sign_dot(kernels::pack_signs(a), kernels::pack_signs(b)),
              static_cast<long long>(n) - 2 * static_cast<long long>(ref));
  }
}

TEST(Bitpack, PackedDigitsMatchScalarReference) {
  Rng rng(11);
  for (std::size_t n : {1u, 64u, 65u, 500u}) {
    std::vector<int> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.bernoulli(0.5) ? 1 : 0;
      b[i] = rng.bernoulli(0.5) ? 1 : 0;
    }
    EXPECT_EQ(kernels::hamming(kernels::pack_bits(a), kernels::pack_bits(b)),
              kernels::hamming_digits_ref(a.data(), b.data(), n))
        << "dim " << n;
  }
}

TEST(Bitpack, MismatchedLengthsRejected) {
  const PackedBits a = kernels::pack_bits(std::vector<int>(10, 1));
  const PackedBits b = kernels::pack_bits(std::vector<int>(11, 1));
  EXPECT_THROW(kernels::hamming(a, b), PreconditionError);
}

// ---- ternary signatures ----------------------------------------------------

TEST(Bitpack, CountSignMismatchesMatchesScalarBind) {
  Rng rng(29);
  // 301 rows cross the 254-row byte-counter flush and leave an odd last
  // row; 4100 columns cross the 4096-column tile with a remainder that is
  // not a whole 16-byte vector.
  const std::size_t rows = 301, cols = 4100, n_levels = 5, samples = 3;
  std::vector<std::uint8_t> ids(rows * cols), levels(n_levels * cols);
  kernels::fill_bernoulli(rng, ids.data(), ids.size(), 0.5);
  kernels::fill_bernoulli(rng, levels.data(), levels.size(), 0.5);
  std::vector<std::uint32_t> level_rows(samples * rows);
  for (auto& l : level_rows) l = rng.uniform_u32(n_levels);
  std::vector<std::uint32_t> counts(samples * cols);
  kernels::count_sign_mismatches(ids.data(), levels.data(), level_rows.data(), rows, cols,
                                 samples, counts.data());
  for (std::size_t s = 0; s < samples; ++s)
    for (std::size_t c = 0; c < cols; ++c) {
      // The +-1.0 bind-and-bundle chain the record encoder used to run.
      double sum = 0.0;
      for (std::size_t k = 0; k < rows; ++k) {
        const double id = ids[k * cols + c] ? 1.0 : -1.0;
        const double lv = levels[level_rows[s * rows + k] * cols + c] ? 1.0 : -1.0;
        sum += id * lv;
      }
      const std::int64_t mismatches = counts[s * cols + c];
      const double from_count =
          static_cast<double>(static_cast<std::int64_t>(rows) - 2 * mismatches);
      ASSERT_EQ(from_count, sum) << "sample " << s << " col " << c;
    }
}

TEST(Ternary, DistanceMatchesSignatureDistance) {
  Rng rng(13);
  for (std::size_t n : {1u, 63u, 64u, 65u, 200u}) {
    mann::Signature a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double ua = rng.uniform();
      a[i] = ua < 0.2 ? cam::kDontCare : (ua < 0.6 ? 1 : 0);
      const double ub = rng.uniform();
      b[i] = ub < 0.2 ? cam::kDontCare : (ub < 0.6 ? 1 : 0);
    }
    EXPECT_EQ(mann::signature_distance(mann::pack_signature(a), mann::pack_signature(b)),
              mann::signature_distance(a, b))
        << "dim " << n;
  }
}

TEST(Ternary, DontCareMatchesEverything) {
  const mann::Signature all_x(70, cam::kDontCare);
  mann::Signature bits(70);
  Rng rng(3);
  for (auto& v : bits) v = rng.bernoulli(0.5) ? 1 : 0;
  EXPECT_EQ(mann::signature_distance(mann::pack_signature(all_x), mann::pack_signature(bits)),
            0u);
}

// ---- MVM -------------------------------------------------------------------

TEST(Mvm, TiledMatchesReferenceExactly) {
  Rng rng(17);
  // Includes single-row, single-column, 1x1, and a shape wider than the
  // column tile so the tiling loop runs more than once.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {1, 7}, {7, 1}, {3, 64}, {64, 3}, {33, 129}, {16, 3000}};
  for (const auto& [rows, cols] : shapes) {
    std::vector<double> a(rows * cols), x(rows);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    x[0] = 0.0;  // exercise the zero-row skip
    std::vector<double> y(cols), y_ref(cols);
    kernels::matvec_t(a.data(), rows, cols, x.data(), y.data());
    kernels::matvec_t_ref(a.data(), rows, cols, x.data(), y_ref.data());
    for (std::size_t c = 0; c < cols; ++c)
      EXPECT_EQ(y[c], y_ref[c]) << rows << 'x' << cols << " col " << c;
  }
}

TEST(Mvm, GemmTMatchesMatvecTRefExactly) {
  Rng rng(23);
  // 617x4096 is the isolet encoder; 13x1000 and 3x7 leave ragged column
  // panels; every sample count 1..9 leaves ragged sample blocks.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {3, 7}, {13, 1000}, {617, 4096}};
  for (const auto& [rows, cols] : shapes) {
    std::vector<double> a(rows * cols);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (std::size_t n = 1; n <= 9; ++n) {
      std::vector<std::vector<double>> x(n, std::vector<double>(rows));
      for (std::size_t s = 0; s < n; ++s)
        for (std::size_t r = 0; r < rows; ++r) {
          // Zero and negative-zero inputs on some rows of some samples: the
          // reference skips those rows per sample, and a -0.0 product can
          // flip a +0.0 sum, so a blocked kernel must skip them too.
          const std::size_t k = (s * 7 + r * 3) % 11;
          x[s][r] = k == 0 ? 0.0 : k == 1 ? -0.0 : rng.uniform(-1.0, 1.0);
        }
      std::vector<std::vector<double>> y(n, std::vector<double>(cols, 42.0));
      std::vector<const double*> xp(n);
      std::vector<double*> yp(n);
      for (std::size_t s = 0; s < n; ++s) {
        xp[s] = x[s].data();
        yp[s] = y[s].data();
      }
      kernels::gemm_t(a.data(), rows, cols, xp.data(), n, yp.data());
      std::vector<double> ref(cols);
      for (std::size_t s = 0; s < n; ++s) {
        kernels::matvec_t_ref(a.data(), rows, cols, x[s].data(), ref.data());
        EXPECT_EQ(std::memcmp(y[s].data(), ref.data(), cols * sizeof(double)), 0)
            << rows << 'x' << cols << " n=" << n << " sample " << s;
      }
    }
  }
  // All-zero and negative-zero-only inputs: every output is the reference's
  // untouched +0.0.
  const std::vector<double> a = {1.0, -2.0, 3.0, -4.0, 5.0, -6.0};
  const std::vector<double> zeros = {0.0, -0.0};
  std::vector<double> y(3, 7.0), ref(3);
  const double* xp = zeros.data();
  double* yp = y.data();
  kernels::gemm_t(a.data(), 2, 3, &xp, 1, &yp);
  kernels::matvec_t_ref(a.data(), 2, 3, zeros.data(), ref.data());
  EXPECT_EQ(std::memcmp(y.data(), ref.data(), sizeof(double) * 3), 0);
}

TEST(Mvm, DotMatchesPlainLoop) {
  Rng rng(19);
  std::vector<double> a(777), b(777);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
  }
  double ref = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) ref += a[i] * b[i];
  EXPECT_EQ(kernels::dot(a.data(), b.data(), a.size()), ref);
}

TEST(Mvm, SmallHelpers) {
  const std::vector<double> v = {3.0, 1.0, -2.0, 5.0};
  std::vector<double> out(2);
  kernels::diff_pairs(v.data(), 2, 2.0, out.data());
  EXPECT_EQ(out[0], 4.0);
  EXPECT_EQ(out[1], -14.0);

  std::vector<double> y = {1.0, 2.0};
  kernels::accumulate(v.data(), y.data(), 2);
  EXPECT_EQ(y[0], 4.0);
  EXPECT_EQ(y[1], 3.0);

  kernels::scale(v.data(), -1.0, y.data(), 2);
  EXPECT_EQ(y[0], -3.0);
  EXPECT_EQ(y[1], -1.0);

  std::vector<double> z(2);
  kernels::scale_sub(v.data(), 2.0, y.data(), z.data(), 2);
  EXPECT_EQ(z[0], 6.0 - (-3.0));
  EXPECT_EQ(z[1], 2.0 - (-1.0));

}

// ---- samplers --------------------------------------------------------------

TEST(Sampler, FillUniformIsSequenceIdentical) {
  Rng a(123), b(123);
  std::vector<double> block(257);
  kernels::fill_uniform(a, block.data(), block.size());
  for (double v : block) EXPECT_EQ(v, b.uniform());
  // Generators remain in lockstep afterwards.
  EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Sampler, FillNormalIsSequenceIdentical) {
  Rng a(321), b(321);
  std::vector<double> block(101);  // odd: leaves a cached spare in flight
  kernels::fill_normal(a, block.data(), block.size(), 1.5, 0.25);
  for (double v : block) EXPECT_EQ(v, b.normal(1.5, 0.25));
  // The polar method's spare must carry across the block boundary too.
  std::vector<double> more(3);
  kernels::fill_normal(a, more.data(), more.size());
  for (double v : more) EXPECT_EQ(v, b.normal(0.0, 1.0));
}

TEST(Sampler, FillBernoulliIsSequenceIdentical) {
  Rng a(55), b(55);
  std::vector<std::uint8_t> block(500);
  kernels::fill_bernoulli(a, block.data(), block.size(), 0.3);
  for (std::uint8_t v : block) EXPECT_EQ(v != 0, b.bernoulli(0.3));
}

TEST(Sampler, FillExponentialIsSequenceIdentical) {
  Rng a(77), b(77);
  std::vector<double> block(333);
  kernels::fill_exponential(a, block.data(), block.size(), 4.0);
  for (double v : block) EXPECT_EQ(v, -std::log1p(-b.uniform()) / 4.0);
  EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Sampler, FillExponentialMomentsAndPositivity) {
  Rng rng(2024);
  const double rate = 2.5;
  std::vector<double> block(200000);
  kernels::fill_exponential(rng, block.data(), block.size(), rate);
  double sum = 0.0;
  for (double v : block) {
    ASSERT_GT(v, 0.0);
    ASSERT_TRUE(std::isfinite(v));
    sum += v;
  }
  const double mean = sum / static_cast<double>(block.size());
  // Standard error of the mean is (1/rate)/sqrt(n) ~ 9e-4; 5 sigma.
  EXPECT_NEAR(mean, 1.0 / rate, 5e-3);
}

TEST(Sampler, ZeroLengthFillsConsumeNothing) {
  Rng a(9), b(9);
  kernels::fill_uniform(a, nullptr, 0);
  kernels::fill_normal(a, nullptr, 0);
  kernels::fill_bernoulli(a, nullptr, 0, 0.5);
  kernels::fill_exponential(a, nullptr, 0, 1.0);
  kernels::fill_normal_fast(a, nullptr, 0);
  EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Sampler, NormalIcdfAccuracyAgainstErf) {
  // Invert via the CDF: Phi(icdf(p)) must recover p.  Acklam's approximation
  // claims |relative error| < 1.15e-9 on the quantile; the round trip through
  // the exact std::erf CDF stays well under 1e-8 in probability.
  for (double p : {1e-12, 1e-6, 0.02425, 0.1, 0.3, 0.5, 0.7, 0.9, 0.97575, 1 - 1e-6}) {
    const double x = kernels::normal_icdf(p);
    const double round_trip = 0.5 * std::erfc(-x / std::sqrt(2.0));
    EXPECT_NEAR(round_trip, p, 1e-8 * std::max(1.0, std::abs(x))) << "p " << p;
  }
  EXPECT_EQ(kernels::normal_icdf(0.5), 0.0);
}

TEST(Sampler, NormalIcdfIsMonotone) {
  double prev = -HUGE_VAL;
  for (int i = 1; i < 2000; ++i) {
    const double p = static_cast<double>(i) / 2000.0;
    const double x = kernels::normal_icdf(p);
    EXPECT_GT(x, prev) << "p " << p;
    prev = x;
  }
}

TEST(Sampler, FillNormalFastMomentsAndDeterminism) {
  Rng rng(2024);
  std::vector<double> block(200000);
  kernels::fill_normal_fast(rng, block.data(), block.size(), 2.0, 3.0);
  double mean = 0.0;
  for (double v : block) mean += v;
  mean /= static_cast<double>(block.size());
  double var = 0.0;
  for (double v : block) var += (v - mean) * (v - mean);
  var /= static_cast<double>(block.size());
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);

  // Pure function of the Rng state: same seed, same block.
  Rng again(2024);
  std::vector<double> block2(block.size());
  kernels::fill_normal_fast(again, block2.data(), block2.size(), 2.0, 3.0);
  EXPECT_EQ(block, block2);
}

// ---- cross-layer determinism ----------------------------------------------

TEST(Kernels, BatchedMcSweepIsThreadCountInvariant) {
  // The fig3g-style Monte-Carlo kernel, batched: per chunk, one
  // fill_normal_fast block + one readback_errors reduction.  The error count
  // must be identical at every thread count (parallel_for_rng forks one
  // stream per chunk; chunking depends only on (n, chunk)).
  device::FeFetParams params;
  params.bits = 3;
  params.sigma_program = 0.08;
  const device::FeFetModel model(params);
  const int mid = params.levels() / 2;
  const double mid_vth = model.level_vth(mid);

  const auto run = [&](std::size_t threads) {
    set_parallel_threads(threads);
    constexpr std::size_t kTrials = 20000;
    constexpr std::size_t kChunk = 1000;
    const std::size_t n_chunks = (kTrials + kChunk - 1) / kChunk;
    std::vector<std::size_t> errors(n_chunks, 0);
    Rng rng(99);
    parallel_for_rng(rng, kTrials, kChunk,
                     [&](Rng& chunk_rng, std::size_t begin, std::size_t end, std::size_t ci) {
                       std::vector<double> vth(end - begin);
                       kernels::fill_normal_fast(chunk_rng, vth.data(), vth.size(), mid_vth,
                                                 params.sigma_program);
                       errors[ci] = model.readback_errors(mid, vth.data(), vth.size());
                     });
    std::size_t total = 0;
    for (std::size_t e : errors) total += e;
    return total;
  };

  const std::size_t at1 = run(1);
  EXPECT_GT(at1, 0u);          // sigma 0.08 against a ~0.15 V half-window: some errors
  EXPECT_LT(at1, 20000u / 2);  // ...but far from random
  EXPECT_EQ(run(2), at1);
  EXPECT_EQ(run(4), at1);
  EXPECT_EQ(run(8), at1);
  set_parallel_threads(0);
}

TEST(Kernels, ReadbackErrorsMatchesScalarReadback) {
  device::FeFetParams params;
  params.bits = 3;
  const device::FeFetModel model(params);
  Rng rng(5);
  for (int level : {0, 3, 7}) {
    std::vector<double> vth(997);
    for (auto& v : vth) v = model.program_vth(level, rng);
    std::size_t ref = 0;
    for (double v : vth) ref += model.readback_level(v) != level ? 1u : 0u;
    EXPECT_EQ(model.readback_errors(level, vth.data(), vth.size()), ref) << "level " << level;
  }
}

TEST(Kernels, DispatchReportsIsa) {
  EXPECT_NE(kernels::isa_name(), nullptr);
  EXPECT_FALSE(std::string(kernels::isa_name()).empty());
}

}  // namespace
}  // namespace xlds
