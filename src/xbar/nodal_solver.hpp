// Cached sparse direct solver for the crossbar nodal IR-drop system.
//
// The two-wire-layer resistive network of an R x C crossbar has 2*R*C
// unknowns: a row-wire node voltage v(r,c) and a column-wire node voltage
// u(r,c) per crosspoint.  Each cell conductance g(r,c) ties v to u, each
// wire segment (conductance g_wire) ties a node to its neighbour along the
// wire, the c == 0 row node ties to the ideal driver, and the bottom column
// node ties to the ADC virtual ground.  The resulting conductance matrix is
// symmetric positive definite, and — crucially — depends only on the
// programmed conductances and the wire resistance, never on the query
// voltages.  So a repeated-readout workload (LSH hashing, MANN episodes,
// MVM sweeps, the DSE nodal rung) can assemble and factorize the matrix
// once per programming state and answer every subsequent input vector with
// a forward/back substitution: orders of magnitude cheaper than re-running
// Gauss-Seidel from a cold start per query (the XbarSim decomposition
// observation).
//
// Ordering and storage.  Nodes are interleaved (v, u) per cell and laid out
// along the shorter array dimension, which bounds the matrix half-bandwidth
// at 2*min(R, C).  The factorization is an envelope (skyline) LDL^T: the
// unit lower factor retains exactly the row profile of A (the textbook
// no-fill property of profile methods), so the row-wire rows — whose lower
// profile is only two entries wide — stay two entries wide, halving both
// memory and flops against a plain banded factorization.  The diagonal slot
// of each packed row stores D(i).  Assembly, factorization and each
// triangular solve are fixed-order serial loops: results are bit-identical
// regardless of thread count, and concurrent solves against one
// factorization are read-only and race-free (each solve uses
// caller-provided scratch).
//
// Vector kernels.  The long rows of the envelope (column-wire rows in
// row-major order, row-wire rows in column-major order) come every other
// row, so the factor sweeps a group of them at once as vector lanes: each
// L(j, .) load serves every row of the group, while each lane keeps the exact
// ascending-k operation chain of the row-by-row loop (padded with +0.0
// before its own profile start, which never meets a -0.0).  The multi-RHS
// substitution runs one right-hand side per lane.  Both kernels are one
// template over the lane type, compiled for SSE2 (2 doubles) and AVX2 (4),
// and the widest tier the CPU supports is picked at run time
// (kernels::runtime_isa()); every width writes the same bytes as the scalar
// row-by-row reference, factorize(..., lanes = 1).
//
// Incremental up/down-dates.  Changing one cell conductance by delta
// perturbs A by exactly the rank-1 matrix delta * w w^T with
// w = e_v - e_u (the two adjacent node indices of that cell), which lies
// entirely inside the envelope.  update_cells() applies such a patch as a
// batch of rank-1 LDL^T modifications (Gill/Golub/Murray/Saunders method
// C1, the algorithm CHOLMOD uses) in a single fused left-to-right sweep:
// cost O((n - p) * bandwidth) per cell from its pivot p, versus
// O(n * bandwidth^2) for a full refactorization.  A downdate that would
// drive a pivot non-positive resets the solver (the caller refactorizes).
#pragma once

#include <cstddef>
#include <vector>

#include "util/matrix.hpp"

namespace xlds::xbar {

/// One cell of a programming patch: the crosspoint at (row, col) now has
/// conductance g_new (siemens).
struct CellDelta {
  std::size_t row = 0;
  std::size_t col = 0;
  double g_new = 0.0;
};

class NodalSolver {
 public:
  NodalSolver() = default;

  /// Assemble the nodal conductance matrix for programmed conductances
  /// `g` (R x C, siemens) and per-segment wire conductance `g_wire`, then
  /// factorize it.  Returns false — leaving the solver not ready — if the
  /// factor would exceed `max_bytes` of storage or the factorization breaks
  /// down numerically (the caller falls back to the iterative solve).
  bool factorize(const MatrixD& g, double g_wire, std::size_t max_bytes);

  /// factorize() with the factor kernel pinned to `lanes` rows per vector:
  /// 1 (the scalar row-by-row reference), 2 (SSE2) or 4 (AVX2, only where
  /// kernel_lanes() is 4).  Every width writes the same factor bytes;
  /// factorize() runs kernel_lanes().
  bool factorize(const MatrixD& g, double g_wire, std::size_t max_bytes, std::size_t lanes);

  /// Doubles per vector of the widest nodal kernels the running CPU supports
  /// (kernels::runtime_isa()): 4 with AVX2, else 2.  factorize() runs that many
  /// rows per vector and solve_block() that many right-hand sides.
  static std::size_t kernel_lanes() noexcept;

  /// Apply a conductance patch to the existing factorization as a batch of
  /// rank-1 up/down-dates (one per cell whose conductance actually changed),
  /// keeping the conductance snapshot, A-diagonal and factor consistent.
  /// Returns false — and resets the solver, so the caller refactorizes from
  /// scratch — on numeric breakdown (a downdated pivot going non-positive)
  /// or a non-finite/negative target.  Exact in exact arithmetic: the
  /// updated factor equals a from-scratch factorization of the patched
  /// matrix; accumulated floating-point drift is the caller's concern (see
  /// updates_applied()).
  bool update_cells(const CellDelta* cells, std::size_t count);

  bool ready() const noexcept { return ready_; }

  /// Rank-1 modifications applied since the last factorize() (drift and
  /// amortisation bookkeeping for the caller's refactorization policy).
  std::size_t updates_applied() const noexcept { return updates_applied_; }

  /// Largest row-profile width of the factor (2*min(rows, cols) for the
  /// crossbar network); the per-column cost unit of update_cells().
  std::size_t bandwidth() const noexcept { return bw_; }

  /// Drop the factorization (programming state changed).
  void reset() noexcept;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t node_count() const noexcept { return n_; }

  /// Bytes held by the packed factor.
  std::size_t factor_bytes() const noexcept { return vals_.size() * sizeof(double); }

  /// The packed factor: row i's L(i, start..i-1) followed by D(i).
  const std::vector<double>& factor_values() const noexcept { return vals_; }

  /// Per-solve scratch.  Reused across solves to amortise allocation; each
  /// concurrently-solving thread must use its own instance.
  struct Workspace {
    std::vector<double> x;  ///< node voltages (back-substitution result);
                            ///< column-current sums in solve_block()
    std::vector<double> y;  ///< rhs, consumed in place by the forward solve;
                            ///< node-major lane block in solve_block()
  };

  struct Result {
    /// Largest Jacobi update magnitude max_i |b - A x|_i / A_ii of the
    /// solution, in volts — directly comparable to the Gauss-Seidel
    /// convergence criterion (largest node-voltage update of a sweep).
    double residual = 0.0;
  };

  /// Solve for one input: `v_in` holds the R row driver voltages, `i_col`
  /// receives the C column currents.  Read-only on the factorization —
  /// concurrent calls with distinct workspaces are safe and bit-identical.
  Result solve(const double* v_in, double* i_col, Workspace& ws) const;

  /// Most right-hand sides one solve_block() call carries.
  static constexpr std::size_t kMaxBlock = 8;

  /// Solve k <= kMaxBlock inputs with one forward and one back pass over the
  /// factor: `v_in` holds k rows of R driver voltages, `i_col` receives k
  /// rows of C column currents and `res[j]` the residual of input j.  The
  /// right-hand sides run side by side in vector lanes, and each keeps the
  /// per-element operation order of solve(), so every current and residual
  /// is bit-identical to k solve() calls.  k == 1 is served by solve().
  void solve_block(const double* v_in, double* i_col, Result* res, std::size_t k,
                   Workspace& ws) const;

 private:
  template <std::size_t S>
  void solve_lanes(const double* v_in, double* i_col, Result* res, std::size_t k,
                   Workspace& ws) const;

  std::size_t node_v(std::size_t r, std::size_t c) const noexcept {
    return 2 * (row_major_ ? r * cols_ + c : c * rows_ + r);
  }
  std::size_t node_u(std::size_t r, std::size_t c) const noexcept {
    return node_v(r, c) + 1;
  }

  std::size_t rows_ = 0, cols_ = 0;
  std::size_t n_ = 0;        ///< 2 * rows * cols unknowns
  bool row_major_ = true;    ///< cells ordered along the shorter dimension
  bool ready_ = false;
  double g_wire_ = 0.0;
  std::size_t bw_ = 0;       ///< largest row-profile width (i - start_[i])
  std::size_t updates_applied_ = 0;  ///< rank-1 modifications since factorize
  MatrixD g_;                ///< conductance snapshot (residual + currents)
  std::vector<double> adiag_;       ///< diagonal of A (Jacobi-scaled residual)
  std::vector<std::size_t> start_;  ///< first profile column of each row of L
  std::vector<std::size_t> off_;    ///< packed offset of L(i, start_[i]); size n+1
  std::vector<double> vals_;        ///< packed profile; diag slot holds D(i)
};

}  // namespace xlds::xbar
