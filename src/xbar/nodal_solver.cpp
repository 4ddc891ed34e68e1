#include "xbar/nodal_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/counters.hpp"
#include "util/error.hpp"

namespace xlds::xbar {

namespace {

// Two right-hand-side lanes of one node: the SSE2 / NEON register width.
// Arithmetic on it is element-wise IEEE mul, sub and div (the target builds
// with -ffp-contract=off, so `s - a * b` is never fused), hence each lane
// performs exactly the scalar operations of solve().
typedef double Lane2 __attribute__((vector_size(16)));

inline Lane2 load2(const double* p) {
  Lane2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, Lane2 v) { std::memcpy(p, &v, sizeof v); }

inline Lane2 splat2(double a) { return Lane2{a, a}; }

}  // namespace

bool NodalSolver::factorize(const MatrixD& g, double g_wire, std::size_t max_bytes) {
  reset();
  if (!(g_wire > 0.0) || !std::isfinite(g_wire) || g.empty()) return false;
  rows_ = g.rows();
  cols_ = g.cols();
  n_ = 2 * rows_ * cols_;
  // Order cells along the shorter dimension: the only long-range coupling is
  // between wire neighbours across consecutive cells of the *other*
  // dimension, so this bounds the profile width at 2*min(rows, cols).
  row_major_ = cols_ <= rows_;
  g_wire_ = g_wire;
  g_ = g;

  // --- profile of the lower triangle ---------------------------------------
  // Row v(r,c): couples below-diagonal only to v(r,c-1); row u(r,c): to
  // v(r,c) (distance 1) and u(r-1,c).  The envelope factor keeps exactly
  // this row profile, so the v rows stay a few entries wide no matter the
  // bandwidth.
  start_.assign(n_, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::size_t iv = node_v(r, c), iu = node_u(r, c);
      start_[iv] = c > 0 ? node_v(r, c - 1) : iv;
      start_[iu] = r > 0 ? std::min(iu - 1, node_u(r - 1, c)) : iu - 1;
    }
  }
  off_.assign(n_ + 1, 0);
  bw_ = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    off_[i + 1] = off_[i] + (i - start_[i] + 1);
    bw_ = std::max(bw_, i - start_[i]);
  }
  if (off_[n_] * sizeof(double) > max_bytes) {
    reset();
    return false;
  }

  // --- assembly -------------------------------------------------------------
  vals_.assign(off_[n_], 0.0);
  adiag_.assign(n_, 0.0);
  const auto entry = [&](std::size_t i, std::size_t j) -> double& {
    XLDS_ASSERT(j >= start_[i] && j <= i);
    return vals_[off_[i] + (j - start_[i])];
  };
  const double gw = g_wire_;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::size_t iv = node_v(r, c), iu = node_u(r, c);
      const double gc = g_(r, c);
      // Row node: cell to u, one segment left (to the driver when c == 0),
      // one segment right when a right neighbour exists.
      const double dv = gc + gw + (c + 1 < cols_ ? gw : 0.0);
      // Column node: cell to v, one segment down (to the ADC virtual ground
      // at the bottom edge), one segment up when an upper neighbour exists.
      const double du = gc + gw + (r > 0 ? gw : 0.0);
      entry(iv, iv) = dv;
      entry(iu, iu) = du;
      adiag_[iv] = dv;
      adiag_[iu] = du;
      entry(iu, iv) = -gc;
      if (c > 0) entry(iv, node_v(r, c - 1)) = -gw;
      if (r > 0) entry(iu, node_u(r - 1, c)) = -gw;
    }
  }

  // --- profile LDL^T, in place ----------------------------------------------
  // Row-by-row left-looking sweep.  `t` carries D(k) * L(i,k) for the row in
  // flight (the value of the numerator `s` at column k — no extra multiply),
  // so every inner dot stays a contiguous two-array product.
  std::vector<double> t(bw_ + 1, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t si = start_[i];
    double* ri = vals_.data() + off_[i];
    for (std::size_t j = si; j < i; ++j) {
      const std::size_t sj = start_[j];
      const std::size_t k0 = std::max(si, sj);
      const double* a = t.data() + (k0 - si);
      const double* b = vals_.data() + off_[j] + (k0 - sj);
      const std::size_t len = j - k0;
      double s = ri[j - si];
      for (std::size_t k = 0; k < len; ++k) s -= a[k] * b[k];
      t[j - si] = s;
      ri[j - si] = s / vals_[off_[j + 1] - 1];
    }
    double d = ri[i - si];
    for (std::size_t k = 0; k < i - si; ++k) d -= t[k] * ri[k];
    // SPD by construction (a connected resistor network with every node tied
    // to the driver or ground); a non-positive pivot means numeric breakdown
    // — decline and let the caller use Gauss-Seidel.
    if (!(d > 0.0) || !std::isfinite(d)) {
      reset();
      return false;
    }
    ri[i - si] = d;
  }
  ready_ = true;
  core::Profiler::count_factorization();
  return true;
}

bool NodalSolver::update_cells(const CellDelta* cells, std::size_t count) {
  if (!ready_) return false;
  for (std::size_t c = 0; c < count; ++c) {
    XLDS_REQUIRE_MSG(cells[c].row < rows_ && cells[c].col < cols_,
                     "cell (" << cells[c].row << ',' << cells[c].col << ") outside "
                              << rows_ << 'x' << cols_ << " array");
    if (!(cells[c].g_new >= 0.0) || !std::isfinite(cells[c].g_new)) return false;
  }

  // One rank-1 modification per cell whose conductance actually changes:
  // A' = A + delta * w w^T with w = e_v - e_u.  The snapshot and A-diagonal
  // are patched up front so the post-update residual check measures the
  // factor against the true new matrix; on breakdown the whole solver resets
  // and the caller refactorizes from its authoritative conductances.
  struct Upd {
    std::size_t p;  ///< pivot node index (the cell's v node)
    double alpha;   ///< signed conductance delta
  };
  std::vector<Upd> ups;
  ups.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    const double delta = cells[c].g_new - g_(cells[c].row, cells[c].col);
    if (delta == 0.0) continue;
    const std::size_t iv = node_v(cells[c].row, cells[c].col);
    g_(cells[c].row, cells[c].col) = cells[c].g_new;
    adiag_[iv] += delta;
    adiag_[iv + 1] += delta;
    ups.push_back(Upd{iv, delta});
  }
  if (ups.empty()) return true;
  std::stable_sort(ups.begin(), ups.end(),
                   [](const Upd& a, const Upd& b) { return a.p < b.p; });

  // Each update carries a sparse working vector w whose nonzero support at
  // sweep position j is confined to the window [j, j + bw_] (w fill can never
  // escape the envelope), so a power-of-two ring of bw_ + 2 slots per update
  // replaces a dense length-n vector.
  std::size_t ring = 1;
  while (ring < bw_ + 2) ring <<= 1;
  const std::size_t mask = ring - 1;
  const std::size_t m = ups.size();
  std::vector<double> w(m * ring, 0.0);
  for (std::size_t u = 0; u < m; ++u) {
    w[u * ring + (ups[u].p & mask)] = 1.0;
    w[u * ring + ((ups[u].p + 1) & mask)] = -1.0;
  }

  // Fused left-to-right sweep: at column j apply, in patch order, the rank-1
  // rotation of every update whose pivot has been reached (method C1).  The
  // interleaving is exactly equivalent to applying the rank-1 updates one
  // after another — an update's rotation at column j only depends on columns
  // <= j, which later updates cannot touch retroactively.
  std::size_t nactive = 0;
  for (std::size_t j = ups[0].p; j < n_; ++j) {
    while (nactive < m && ups[nactive].p <= j) ++nactive;
    const std::size_t imax = std::min(n_ - 1, j + bw_);
    // The rows of column j's envelope structure below the diagonal: every
    // odd (column-wire) node within one bandwidth, at most one even
    // (row-wire) node at j + 1 or j + 2 — their profiles only reach two
    // columns left.
    const std::size_t ieven = (j + 1) % 2 == 0 ? j + 1 : j + 2;
    for (std::size_t u = 0; u < nactive; ++u) {
      double* wu = w.data() + u * ring;
      const double p = wu[j & mask];
      if (p == 0.0) continue;
      wu[j & mask] = 0.0;
      double& dslot = vals_[off_[j + 1] - 1];
      const double dold = dslot;
      const double dnew = dold + ups[u].alpha * p * p;
      if (!(dnew > 0.0) || !std::isfinite(dnew)) {
        reset();
        return false;
      }
      dslot = dnew;
      const double beta = ups[u].alpha * p / dnew;
      ups[u].alpha *= dold / dnew;
      const auto touch = [&](std::size_t i) {
        double& lij = vals_[off_[i] + (j - start_[i])];
        const double wi = wu[i & mask] - p * lij;
        wu[i & mask] = wi;
        lij += beta * wi;
      };
      if (ieven <= imax && start_[ieven] <= j) touch(ieven);
      for (std::size_t i = (j + 1) | 1; i <= imax; i += 2)
        if (start_[i] <= j) touch(i);
    }
  }
  updates_applied_ += m;
  core::Profiler::count_incremental_update(m);
  return true;
}

void NodalSolver::reset() noexcept {
  ready_ = false;
  rows_ = cols_ = n_ = 0;
  g_wire_ = 0.0;
  bw_ = 0;
  updates_applied_ = 0;
  g_ = MatrixD{};
  adiag_.clear();
  adiag_.shrink_to_fit();
  start_.clear();
  start_.shrink_to_fit();
  off_.clear();
  off_.shrink_to_fit();
  vals_.clear();
  vals_.shrink_to_fit();
}

NodalSolver::Result NodalSolver::solve(const double* v_in, double* i_col,
                                       Workspace& ws) const {
  XLDS_REQUIRE_MSG(ready_, "NodalSolver::solve before a successful factorize");
  const double gw = g_wire_;
  core::Profiler::count_direct_solve();

  // RHS: the driver ties inject gw * v_in[r] at each row's first node.
  ws.y.assign(n_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) ws.y[node_v(r, 0)] = gw * v_in[r];

  // Forward substitution L y = b (unit lower triangle, in place on ws.y).
  double* y = ws.y.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t si = start_[i];
    const double* ri = vals_.data() + off_[i];
    double s = y[i];
    const std::size_t len = i - si;
    const double* ys = y + si;
    for (std::size_t t = 0; t < len; ++t) s -= ri[t] * ys[t];
    y[i] = s;
  }

  // Diagonal scaling, then back substitution L^T x = y (row-saxpy form:
  // contiguous profile rows, unit diagonal).
  ws.x.resize(n_);
  double* x = ws.x.data();
  for (std::size_t i = 0; i < n_; ++i) x[i] = y[i] / vals_[off_[i + 1] - 1];
  for (std::size_t i = n_; i-- > 0;) {
    const std::size_t si = start_[i];
    const double* ri = vals_.data() + off_[i];
    const double xi = x[i];
    double* xs = x + si;
    const std::size_t len = i - si;
    for (std::size_t t = 0; t < len; ++t) xs[t] -= ri[t] * xi;
  }

  // Residual in Gauss-Seidel units (largest Jacobi node update the iterative
  // solver would still make), and the column currents as the sum of cell
  // currents — same well-conditioned readout the iterative path uses.
  Result res;
  std::fill(i_col, i_col + cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::size_t iv = node_v(r, c), iu = node_u(r, c);
      const double gc = g_(r, c);
      const double xv = x[iv], xu = x[iu];
      double ax_v = adiag_[iv] * xv - gc * xu;
      if (c > 0) ax_v -= gw * x[node_v(r, c - 1)];
      if (c + 1 < cols_) ax_v -= gw * x[node_v(r, c + 1)];
      const double b_v = c == 0 ? gw * v_in[r] : 0.0;
      double ax_u = adiag_[iu] * xu - gc * xv;
      if (r > 0) ax_u -= gw * x[node_u(r - 1, c)];
      if (r + 1 < rows_) ax_u -= gw * x[node_u(r + 1, c)];
      res.residual = std::max(res.residual, std::abs(b_v - ax_v) / adiag_[iv]);
      res.residual = std::max(res.residual, std::abs(0.0 - ax_u) / adiag_[iu]);
      i_col[c] += gc * (xv - xu);
    }
  }
  return res;
}

void NodalSolver::solve_block(const double* v_in, double* i_col, Result* res, std::size_t k,
                              Workspace& ws) const {
  XLDS_REQUIRE_MSG(ready_, "NodalSolver::solve_block before a successful factorize");
  XLDS_REQUIRE_MSG(k >= 1 && k <= kMaxBlock,
                   "solve_block takes 1.." << kMaxBlock << " right-hand sides, got " << k);
  // A lone input gains nothing from lanes: the scalar solve streams the same
  // factor with no padding lane and half the workspace.
  if (k == 1) {
    res[0] = solve(v_in, i_col, ws);
    return;
  }
  switch ((k + 1) / 2) {
    case 1: solve_lanes<1>(v_in, i_col, res, k, ws); break;
    case 2: solve_lanes<2>(v_in, i_col, res, k, ws); break;
    case 3: solve_lanes<3>(v_in, i_col, res, k, ws); break;
    default: solve_lanes<4>(v_in, i_col, res, k, ws); break;
  }
}

template <std::size_t P>
void NodalSolver::solve_lanes(const double* v_in, double* i_col, Result* res, std::size_t k,
                              Workspace& ws) const {
  // Node-major lane block: y[i * S + j] is node i of right-hand side j.  An
  // odd k leaves one padding lane whose all-zero rhs stays exactly zero.
  constexpr std::size_t S = 2 * P;
  const double gw = g_wire_;
  core::Profiler::count_direct_solve(k);

  ws.y.assign(n_ * S, 0.0);
  double* y = ws.y.data();
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t r = 0; r < rows_; ++r) y[node_v(r, 0) * S + j] = gw * v_in[j * rows_ + r];

  // Forward substitution L y = b: every lane runs the scalar dot chain
  // s -= L(i,t) * y(t) in the same t order, P independent vector chains per
  // factor entry loaded.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t si = start_[i];
    const double* ri = vals_.data() + off_[i];
    const double* ys = y + si * S;
    const std::size_t len = i - si;
    Lane2 s[P];
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) s[p] = load2(y + i * S + 2 * p);
    for (std::size_t t = 0; t < len; ++t) {
      const Lane2 a = splat2(ri[t]);
      const double* yt = ys + t * S;
#pragma GCC unroll 4
      for (std::size_t p = 0; p < P; ++p) s[p] -= a * load2(yt + 2 * p);
    }
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) store2(y + i * S + 2 * p, s[p]);
  }

  // Diagonal scaling, then back substitution L^T x = y in place (the scalar
  // path's separate x vector holds the same values element for element).
  for (std::size_t i = 0; i < n_; ++i) {
    const Lane2 d = splat2(vals_[off_[i + 1] - 1]);
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) {
      double* yi = y + i * S + 2 * p;
      store2(yi, load2(yi) / d);
    }
  }
  for (std::size_t i = n_; i-- > 0;) {
    const std::size_t si = start_[i];
    const double* ri = vals_.data() + off_[i];
    double* xs = y + si * S;
    const std::size_t len = i - si;
    Lane2 xi[P];
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) xi[p] = load2(y + i * S + 2 * p);
    for (std::size_t t = 0; t < len; ++t) {
      const Lane2 a = splat2(ri[t]);
      double* xt = xs + t * S;
#pragma GCC unroll 4
      for (std::size_t p = 0; p < P; ++p) store2(xt + 2 * p, load2(xt + 2 * p) - a * xi[p]);
    }
  }

  // Residual and column currents, lane by lane with solve()'s expressions;
  // the currents accumulate over rows in the same order into ws.x.
  const double* x = y;
  ws.x.assign(cols_ * S, 0.0);
  double* acc = ws.x.data();
  double resid[S] = {};
  double b_first[S] = {};
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t j = 0; j < k; ++j) b_first[j] = gw * v_in[j * rows_ + r];
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::size_t iv = node_v(r, c), iu = node_u(r, c);
      const double gc = g_(r, c);
      const double av = adiag_[iv], au = adiag_[iu];
      const double* xv = x + iv * S;
      const double* xu = x + iu * S;
      const double* xl = c > 0 ? x + node_v(r, c - 1) * S : nullptr;
      const double* xr = c + 1 < cols_ ? x + node_v(r, c + 1) * S : nullptr;
      const double* xa = r > 0 ? x + node_u(r - 1, c) * S : nullptr;
      const double* xb = r + 1 < rows_ ? x + node_u(r + 1, c) * S : nullptr;
      double* ac = acc + c * S;
      for (std::size_t j = 0; j < S; ++j) {
        double ax_v = av * xv[j] - gc * xu[j];
        if (xl != nullptr) ax_v -= gw * xl[j];
        if (xr != nullptr) ax_v -= gw * xr[j];
        const double b_v = c == 0 ? b_first[j] : 0.0;
        double ax_u = au * xu[j] - gc * xv[j];
        if (xa != nullptr) ax_u -= gw * xa[j];
        if (xb != nullptr) ax_u -= gw * xb[j];
        resid[j] = std::max(resid[j], std::abs(b_v - ax_v) / av);
        resid[j] = std::max(resid[j], std::abs(0.0 - ax_u) / au);
        ac[j] += gc * (xv[j] - xu[j]);
      }
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    res[j] = Result{};
    res[j].residual = resid[j];
    double* out = i_col + j * cols_;
    for (std::size_t c = 0; c < cols_; ++c) out[c] = acc[c * S + j];
  }
}

}  // namespace xlds::xbar
