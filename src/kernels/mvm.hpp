// Dense matrix-vector kernels for the crossbar / encoder hot paths.
//
// The simulator's MVMs all have the same shape: a row-major matrix A
// (conductances, projection weights) applied as y = A^T x — iterate rows,
// y[c] += A[r][c] * x[r].  These kernels keep that *exact accumulation
// order* (per output element, contributions arrive in increasing row index),
// so adopting them is bit-identical to the loops they replace — the golden
// figure tables and the util::parallel determinism contract survive.  The
// speedup comes from restrict-qualified contiguous spans (the compiler can
// finally vectorise: the aliasing of `out` against `g` was the blocker),
// column tiling that keeps the active slice of y in L1 for wide
// hypervector-sized outputs, and skipping all-zero input rows.
//
// kernels::matvec_t_ref is the untiled naive loop — the scalar reference the
// tests and the bench-smoke gate compare against (equal results, slower).
#pragma once

#include <cstddef>

namespace xlds::kernels {

/// y = A^T x for row-major A[rows x cols]: y[c] = sum_r A[r][c] * x[r].
/// y is fully overwritten.  Rows with x[r] == 0.0 are skipped (exact: a zero
/// input contributes +0.0 to every column).
void matvec_t(const double* a, std::size_t rows, std::size_t cols, const double* x, double* y);

/// Scalar reference for matvec_t (same accumulation order, no tiling).
void matvec_t_ref(const double* a, std::size_t rows, std::size_t cols, const double* x,
                  double* y);

/// Batched matvec_t: y_s = A^T x_s for n samples, i.e. ys[s][c] =
/// sum_r A[r][c] * xs[s][r] for row-major A[rows x cols], each xs[s] holding
/// `rows` inputs and each ys[s] `cols` outputs (fully overwritten).  Every
/// ys[s] is byte-equal to matvec_t_ref on xs[s] — the same left-associative,
/// row-ascending chain from +0.0 and the same per-sample skip of zero inputs —
/// at any n and any thread count.  A register-blocked micro-kernel keeps a
/// block of samples' accumulators in registers across the whole row loop, and
/// util::parallel lanes split the columns, so A is read once per call instead
/// of once per sample.
void gemm_t(const double* a, std::size_t rows, std::size_t cols, const double* const* xs,
            std::size_t n, double* const* ys);

/// y = A x for row-major A[rows x cols]: y[r] = dot(A[r], x).
void matvec(const double* a, std::size_t rows, std::size_t cols, const double* x, double* y);

/// Strict left-to-right dot product (single accumulator — the exact order the
/// scalar similarity loops used, so scores stay bit-identical).
double dot(const double* a, const double* b, std::size_t n);

/// y[i] = x[i] * s.
void scale(const double* x, double s, double* y, std::size_t n);

/// y[i] = x[i] * s - b[i] — fused scale-and-bias-subtract (analog encode
/// readout: digital removal of the mean-projection term).  In-place safe for
/// y == x (b must not alias).
void scale_sub(const double* x, double s, const double* b, double* y, std::size_t n);

/// y[i] += x[i] — tile-partial accumulation (TiledCrossbar reduce).
void accumulate(const double* x, double* y, std::size_t n);

/// out[j] = (v[2j] - v[2j+1]) * s — differential column-pair reduction.
void diff_pairs(const double* v, std::size_t n_pairs, double s, double* out);

}  // namespace xlds::kernels
