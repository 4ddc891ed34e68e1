#include "kernels/mvm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/parallel.hpp"

namespace xlds::kernels {

namespace {
// Column tiling keeps the active slice of y cache-resident while the row loop
// streams the matrix through — but each extra tile is another strided pass
// over A, which costs memory bandwidth on matrices that spill the LLC.  So
// tile only when y itself is too large to stay resident (> kMaxResidentCols
// doubles, 128 KiB); below that a single sequential pass over A wins.  The
// cutover never reorders the per-column accumulation (tiling only changes the
// loop nest), so results are bit-identical for every problem size and policy.
constexpr std::size_t kColTile = 1024;
constexpr std::size_t kMaxResidentCols = 16384;

// gemm_t register block: kGemmSamples samples x 2 two-double vector lanes
// (kGemmPanel columns) — 8 accumulators, 2 panel loads and a broadcast fit
// the 16 SSE2 registers.  Arithmetic on V2 is element-wise IEEE mul and add;
// the TU builds with -ffp-contract=off, so `acc + p * x` is never fused and
// each lane performs exactly the scalar reference's operations.
typedef double V2 __attribute__((vector_size(16)));
constexpr std::size_t kGemmSamples = 4;
constexpr std::size_t kGemmPanel = 4;
// Columns per tile — the unit of parallel work, and of A packed at once: 32
// panels of a 617-row A is ~630 KiB, which stays in L2 while every sample
// block sweeps it.
constexpr std::size_t kGemmTilePanels = 32;
constexpr std::size_t kGemmTile = kGemmPanel * kGemmTilePanels;
// Sample blocks that sweep one panel while it sits in L1 (their packed inputs,
// ~320 KiB at 617 rows, stream from L2).
constexpr std::size_t kGemmSuperBlock = 8;
// Below this many multiply-adds per lane a call runs inline: fork/join would
// cost more than it saves.
constexpr std::size_t kGemmMinMacsPerTask = std::size_t{1} << 21;

// One register block: kGemmSamples samples x kGemmPanel columns over every
// row.  `panel` is A[:, c0 .. c0 + kGemmPanel) packed row-major
// ([rows][kGemmPanel]), `xp` the block's inputs packed row-major and
// pre-broadcast ([rows][kGemmSamples] two-double pairs), and `dense[r]` is
// set when no input of the block is zero in row r.  Each accumulator element
// is one output's chain — +0.0, then acc + a * x per row in ascending order,
// which is matvec_t_ref's sequence — and a zero input skips only its own
// sample's update.  All kGemmSamples results go to `out`
// ([kGemmSamples][kGemmPanel]); the caller stores the real samples' rows.
void gemm_t_block(const double* __restrict panel, const double* __restrict xp,
                  const unsigned char* __restrict dense, std::size_t rows, double* out) {
  V2 c00 = {}, c01 = {}, c10 = {}, c11 = {}, c20 = {}, c21 = {}, c30 = {}, c31 = {};
  const auto step = [](V2& lo, V2& hi, V2 p0, V2 p1, const double* x) {
    V2 xs;
    std::memcpy(&xs, x, sizeof xs);
    lo = lo + p0 * xs;
    hi = hi + p1 * xs;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    V2 p0, p1;
    std::memcpy(&p0, panel + r * kGemmPanel, sizeof p0);
    std::memcpy(&p1, panel + r * kGemmPanel + 2, sizeof p1);
    const double* xr = xp + r * 2 * kGemmSamples;
    if (dense[r]) {
      step(c00, c01, p0, p1, xr);
      step(c10, c11, p0, p1, xr + 2);
      step(c20, c21, p0, p1, xr + 4);
      step(c30, c31, p0, p1, xr + 6);
    } else {
      if (xr[0] != 0.0) step(c00, c01, p0, p1, xr);
      if (xr[2] != 0.0) step(c10, c11, p0, p1, xr + 2);
      if (xr[4] != 0.0) step(c20, c21, p0, p1, xr + 4);
      if (xr[6] != 0.0) step(c30, c31, p0, p1, xr + 6);
    }
  }
  const V2 acc[2 * kGemmSamples] = {c00, c01, c10, c11, c20, c21, c30, c31};
  std::memcpy(out, acc, sizeof acc);
}
}  // namespace

void matvec_t(const double* a, std::size_t rows, std::size_t cols, const double* x, double* y) {
  std::fill(y, y + cols, 0.0);
  const std::size_t tile = cols <= kMaxResidentCols ? cols : kColTile;
  for (std::size_t c0 = 0; c0 < cols; c0 += tile) {
    const std::size_t c1 = std::min(cols, c0 + tile);
    double* __restrict yt = y + c0;
    const std::size_t width = c1 - c0;
    // Four-row blocking: one load+store of the y slice serves four rows of A,
    // and the four products per element form independent dependency chains.
    // The fused update is a left-associative chain, so each y element sees
    // the exact same sequence of rounded additions as four sequential row
    // updates — bit-identical to the reference.  A zero input anywhere in the
    // block drops to the per-row loop: the reference skips that row entirely,
    // and adding its 0.0-products is not always a bitwise no-op (-0.0 cases).
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
      const double x0 = x[r], x1 = x[r + 1], x2 = x[r + 2], x3 = x[r + 3];
      if (x0 == 0.0 || x1 == 0.0 || x2 == 0.0 || x3 == 0.0) {
        for (std::size_t rr = r; rr < r + 4; ++rr) {
          const double xr = x[rr];
          if (xr == 0.0) continue;
          const double* __restrict row = a + rr * cols + c0;
          for (std::size_t c = 0; c < width; ++c) yt[c] += row[c] * xr;
        }
        continue;
      }
      const double* __restrict r0 = a + r * cols + c0;
      const double* __restrict r1 = r0 + cols;
      const double* __restrict r2 = r1 + cols;
      const double* __restrict r3 = r2 + cols;
      for (std::size_t c = 0; c < width; ++c)
        yt[c] = (((yt[c] + r0[c] * x0) + r1[c] * x1) + r2[c] * x2) + r3[c] * x3;
    }
    for (; r < rows; ++r) {
      const double xr = x[r];
      if (xr == 0.0) continue;
      const double* __restrict row = a + r * cols + c0;
      for (std::size_t c = 0; c < width; ++c) yt[c] += row[c] * xr;
    }
  }
}

void matvec_t_ref(const double* a, std::size_t rows, std::size_t cols, const double* x,
                  double* y) {
  std::fill(y, y + cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* row = a + r * cols;
    for (std::size_t c = 0; c < cols; ++c) y[c] += row[c] * xr;
  }
}

void gemm_t(const double* a, std::size_t rows, std::size_t cols, const double* const* xs,
            std::size_t n, double* const* ys) {
  if (n == 0 || cols == 0) return;
  // Pack the inputs per block of kGemmSamples, each value duplicated into a
  // two-double pair, with one dense flag per block row.  A ragged last block
  // is padded with 1.0: its padding lanes are never stored, and the flags
  // look at real samples only.
  const std::size_t blocks = (n + kGemmSamples - 1) / kGemmSamples;
  const std::size_t block_len = rows * 2 * kGemmSamples;
  std::vector<double> xp(blocks * block_len, 1.0);
  std::vector<unsigned char> dense(blocks * rows);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t s0 = b * kGemmSamples, m = std::min(kGemmSamples, n - s0);
    double* xb = xp.data() + b * block_len;
    for (std::size_t r = 0; r < rows; ++r) {
      bool all = true;
      for (std::size_t j = 0; j < m; ++j) {
        const double v = xs[s0 + j][r];
        xb[(r * kGemmSamples + j) * 2] = xb[(r * kGemmSamples + j) * 2 + 1] = v;
        all = all && v != 0.0;
      }
      dense[b * rows + r] = all ? 1 : 0;
    }
  }
  // Each task owns whole column tiles: it packs A's tile row by row into
  // panel-major order (the tile stays in L2), then each group of
  // kGemmSuperBlock sample blocks sweeps one panel after another while the
  // panel sits in L1.  Tiles write disjoint output columns and each output's
  // chain runs inside one micro-kernel call, so the split never changes a
  // byte.
  const std::size_t full = cols - cols % kGemmPanel;
  const std::size_t tiles = (full + kGemmTile - 1) / kGemmTile;
  const std::size_t tile_macs = std::max<std::size_t>(1, rows * n * kGemmTile);
  parallel_for(
      tiles, 1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<double> tile(rows * kGemmTile);
        for (std::size_t t = begin; t < end; ++t) {
          const std::size_t c0 = t * kGemmTile;
          const std::size_t panels = std::min(kGemmTile, full - c0) / kGemmPanel;
          for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t p = 0; p < panels; ++p)
              std::memcpy(tile.data() + (p * rows + r) * kGemmPanel,
                          a + r * cols + c0 + p * kGemmPanel, sizeof(double) * kGemmPanel);
          for (std::size_t b0 = 0; b0 < blocks; b0 += kGemmSuperBlock) {
            const std::size_t b1 = std::min(blocks, b0 + kGemmSuperBlock);
            for (std::size_t p = 0; p < panels; ++p) {
              const std::size_t c = c0 + p * kGemmPanel;
              for (std::size_t b = b0; b < b1; ++b) {
                double out[kGemmSamples][kGemmPanel];
                gemm_t_block(tile.data() + p * rows * kGemmPanel, xp.data() + b * block_len,
                             dense.data() + b * rows, rows, out[0]);
                const std::size_t s0 = b * kGemmSamples, m = std::min(kGemmSamples, n - s0);
                for (std::size_t j = 0; j < m; ++j)
                  std::memcpy(ys[s0 + j] + c, out[j], sizeof out[j]);
              }
            }
          }
        }
      },
      std::max<std::size_t>(1, kGemmMinMacsPerTask / tile_macs));
  // Ragged right edge (cols % kGemmPanel columns): the reference loop itself.
  for (std::size_t c = full; c < cols; ++c)
    for (std::size_t s = 0; s < n; ++s) {
      const double* x = xs[s];
      double acc = 0.0;
      for (std::size_t r = 0; r < rows; ++r) {
        if (x[r] == 0.0) continue;
        acc += a[r * cols + c] * x[r];
      }
      ys[s][c] = acc;
    }
}

void matvec(const double* a, std::size_t rows, std::size_t cols, const double* x, double* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* __restrict row = a + r * cols;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

double dot(const double* a, const double* b, std::size_t n) {
  const double* __restrict pa = a;
  const double* __restrict pb = b;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += pa[i] * pb[i];
  return acc;
}

void scale(const double* x, double s, double* y, std::size_t n) {
  const double* __restrict px = x;
  double* __restrict py = y;
  for (std::size_t i = 0; i < n; ++i) py[i] = px[i] * s;
}

void scale_sub(const double* x, double s, const double* b, double* y, std::size_t n) {
  const double* __restrict pb = b;
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] * s - pb[i];
}

void accumulate(const double* x, double* y, std::size_t n) {
  const double* __restrict px = x;
  double* __restrict py = y;
  for (std::size_t i = 0; i < n; ++i) py[i] += px[i];
}

void diff_pairs(const double* v, std::size_t n_pairs, double s, double* out) {
  const double* __restrict pv = v;
  double* __restrict po = out;
  for (std::size_t j = 0; j < n_pairs; ++j) po[j] = (pv[2 * j] - pv[2 * j + 1]) * s;
}

}  // namespace xlds::kernels
