#include "xbar/nodal_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/counters.hpp"
#include "kernels/dispatch.hpp"
#include "util/error.hpp"

namespace xlds::xbar {

namespace {

// Vector lanes of doubles (GCC vector extensions; a plain double is the
// one-lane case).  Arithmetic on them is element-wise IEEE mul, sub and div —
// the target builds with -ffp-contract=off, so `s - a * b` is never fused —
// hence each lane performs exactly the scalar operations.  Loads and stores
// go through memcpy, so no helper passes a vector by value.
typedef double Lane2 __attribute__((vector_size(16)));
typedef double Lane4 __attribute__((vector_size(32)));

template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

template <class V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  if constexpr (kLanes<V> == 1)
    v = *p;  // GCC would carry a memcpy'd double in a general register
  else
    std::memcpy(&v, p, sizeof v);
}

template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  if constexpr (kLanes<V> == 1)
    *p = v;
  else
    std::memcpy(p, &v, sizeof v);
}

/// The envelope's index arrays: row i's packed profile covers columns
/// start[i]..i at vals[off[i]..off[i + 1]), its diagonal slot last.
struct Profile {
  std::size_t n;
  std::size_t bw;  ///< widest row, i - start[i]
  const std::size_t* start;
  const std::size_t* off;

  double diag(const double* vals, std::size_t i) const { return vals[off[i + 1] - 1]; }
};

// Left-looking envelope LDL^T in place: row i's packed A(i, start_i..i)
// becomes L(i, start_i..i-1) and D(i).  For each profile column j, ascending,
//     s = A(i,j) - sum_{k = max(start_i, start_j)}^{j-1} t(k) * L(j,k)
//     t(j) = s,  L(i,j) = s / D(j)
// (k ascending), then D(i) = A(i,i) - sum_k t(k) * L(i,k).  `t` carries
// D(k) * L(i,k), the numerator at column k, so every dot is a two-array
// product.
//
// Lane blocking.  The long rows — column-wire rows in row-major order,
// row-wire rows in column-major order, bw wide — come every other row.  Up to
// G = P * W of them, rows i, i+2, ..., run as the lanes of P vectors of W
// doubles, so each L(j, .) load of the column sweep serves all of them and P
// independent chains are in flight.  A lane keeps its exact
// chain: before its own profile start it holds t = +0.0, and a pad term
// s -= (+0.0) * L(j,k) leaves s unchanged unless s is -0.0.  Pads precede a
// lane's own terms, so they only ever meet s = A(i,j), and the only assembled
// -0.0 is an open cell's coupling -g(r,c) at column i-1 of a column-wire row,
// where the column's own profile (the adjacent row-wire row) starts inside
// the lane's: no pad.  Lane 0 starts first and never pads.  When the sweep
// reaches a row inside the group it finishes it first — a lane reads D off
// its running diagonal chain, a short row runs the scalar loop — so every row
// completes in the original order.  G == 1 is that scalar loop for every row:
// the reference the wider instantiations must reproduce byte for byte.
//
// Vectors per group: one vector leaves the chain latency exposed.  On a
// 4-vCPU Xeon (64x64, AVX2, best of 7) the factor took 7.4 ms with 1 vector,
// 4.2-5.2 ms with 2, 3.1-3.5 ms with 4, and 6.5-11 ms with 6 (register
// spills); the scalar reference takes 11-12 ms.
constexpr std::size_t kFactorVectors = 4;

template <class V, std::size_t P>
[[gnu::always_inline]] inline bool factor_kernel(const Profile& pr, double* vals) {
  constexpr std::size_t W = kLanes<V>, G = P * W;
  const std::size_t* start = pr.start;
  const std::size_t* off = pr.off;
  std::vector<double> t(pr.bw + 1);
  // Lane multipliers, k-major: tl[(k - base) * G + g] is t(k) of lane g.
  std::vector<double> tl((pr.bw + 2 * G) * G);

  const auto scalar_row = [&](std::size_t i) {
    const std::size_t si = start[i];
    double* ri = vals + off[i];
    for (std::size_t j = si; j < i; ++j) {
      const std::size_t sj = start[j];
      const std::size_t k0 = std::max(si, sj);
      const double* a = t.data() + (k0 - si);
      const double* b = vals + off[j] + (k0 - sj);
      double s = ri[j - si];
      for (std::size_t k = 0; k < j - k0; ++k) s -= a[k] * b[k];
      t[j - si] = s;
      ri[j - si] = s / pr.diag(vals, j);
    }
    double d = ri[i - si];
    for (std::size_t k = 0; k < i - si; ++k) d -= t[k] * ri[k];
    ri[i - si] = d;
    return d > 0.0 && std::isfinite(d);
  };
  const auto is_long = [&](std::size_t i) { return pr.bw > 0 && i - start[i] == pr.bw; };

  for (std::size_t i = 0; i < pr.n;) {
    if (!is_long(i)) {
      if (!scalar_row(i)) return false;
      ++i;
      continue;
    }
    std::size_t lanes = 1;
    while (lanes < G && i + 2 * lanes < pr.n && is_long(i + 2 * lanes) &&
           start[i + 2 * lanes] < i)
      ++lanes;
    const std::size_t last = i + 2 * (lanes - 1);
    const std::size_t base = start[i];
    // Lane g owns profile columns [lo, hi) of row i + 2g, at vals[at + j];
    // an empty lane owns none.
    std::size_t lo[G] = {}, hi[G] = {}, at[G] = {};
    double buf[G];
    for (std::size_t g = 0; g < G; ++g) {
      buf[g] = 1.0;
      if (g >= lanes) continue;
      lo[g] = start[i + 2 * g];
      hi[g] = i + 2 * g;
      at[g] = off[hi[g]] - lo[g];
      buf[g] = pr.diag(vals, hi[g]);
    }
    V d[P];  // running diagonal chains, from A(i,i)
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) load(d[p], buf + p * W);
    for (std::size_t j = base;; ++j) {
      if (j >= i && (j - i) % 2 == 0) {  // a lane's row is due: D is its chain
#pragma GCC unroll 4
        for (std::size_t p = 0; p < P; ++p) store(buf + p * W, d[p]);
        const double dg = buf[(j - i) / 2];
        if (!(dg > 0.0) || !std::isfinite(dg)) return false;
        vals[off[j + 1] - 1] = dg;
        if (j == last) break;
      } else if (j >= i && !scalar_row(j)) {
        return false;
      }
      const std::size_t sj = start[j];
      const std::size_t k0 = std::max(base, sj);
      for (std::size_t g = 0; g < G; ++g) buf[g] = lo[g] <= j && j < hi[g] ? vals[at[g] + j] : 0.0;
      V s[P];
#pragma GCC unroll 4
      for (std::size_t p = 0; p < P; ++p) load(s[p], buf + p * W);
      const double* tk = tl.data() + (k0 - base) * G;
      const double* lj = vals + off[j] + (k0 - sj);
      for (std::size_t k = 0; k < j - k0; ++k) {
#pragma GCC unroll 4
        for (std::size_t p = 0; p < P; ++p) {
          V tv;
          load(tv, tk + k * G + p * W);
          s[p] -= tv * lj[k];
        }
      }
      const double dj = pr.diag(vals, j);
#pragma GCC unroll 4
      for (std::size_t p = 0; p < P; ++p) {
        store(tl.data() + (j - base) * G + p * W, s[p]);
        const V l = s[p] / dj;
        d[p] -= s[p] * l;
        store(buf + p * W, l);
      }
      for (std::size_t g = 0; g < G; ++g)
        if (lo[g] <= j && j < hi[g]) vals[at[g] + j] = buf[g];
    }
    i = last + 1;
  }
  return true;
}

// Row segments of the substitutions on a node-major block: y[k * S + m] is
// node k of right-hand side m, S = P * lanes, and `l` points at L(i, 0) of
// the row (so l[k] is L(i, k) for k inside its profile).  Each right-hand side
// runs in one lane of P vectors.

// s -= L(i, k) * y(k) for k in [k0, k1): a slice of row i's forward dot.
template <class V, std::size_t P>
[[gnu::always_inline]] inline void forward_segment(const double* l, V* s, const double* y,
                                                   std::size_t k0, std::size_t k1) {
  constexpr std::size_t W = kLanes<V>, S = P * W;
  for (std::size_t k = k0; k < k1; ++k) {
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) {
      V yk;
      load(yk, y + k * S + p * W);
      s[p] -= l[k] * yk;
    }
  }
}

// Two rows' forward dots over a shared slice: one load of y(k) feeds both.
template <class V, std::size_t P>
[[gnu::always_inline]] inline void forward_segment2(const double* la, V* sa, const double* lb,
                                                    V* sb, const double* y, std::size_t k0,
                                                    std::size_t k1) {
  constexpr std::size_t W = kLanes<V>, S = P * W;
  for (std::size_t k = k0; k < k1; ++k) {
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) {
      V yk;
      load(yk, y + k * S + p * W);
      sa[p] -= la[k] * yk;
      sb[p] -= lb[k] * yk;
    }
  }
}

// x(t) -= L(i, t) * x(i) for t in [t0, t1): a slice of row i's back update.
template <class V, std::size_t P>
[[gnu::always_inline]] inline void back_segment(const double* l, const V* xi, double* y,
                                                std::size_t t0, std::size_t t1) {
  constexpr std::size_t W = kLanes<V>, S = P * W;
  for (std::size_t t = t0; t < t1; ++t) {
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) {
      V xt;
      load(xt, y + t * S + p * W);
      xt = xt - l[t] * xi[p];
      store(y + t * S + p * W, xt);
    }
  }
}

// Two rows' back updates over a shared slice, row a's before row b's: one
// load and store of x(t) serves both.
template <class V, std::size_t P>
[[gnu::always_inline]] inline void back_segment2(const double* la, const V* xa, const double* lb,
                                                 const V* xb, double* y, std::size_t t0,
                                                 std::size_t t1) {
  constexpr std::size_t W = kLanes<V>, S = P * W;
  for (std::size_t t = t0; t < t1; ++t) {
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) {
      V xt;
      load(xt, y + t * S + p * W);
      xt = xt - la[t] * xa[p];
      xt = xt - lb[t] * xb[p];
      store(y + t * S + p * W, xt);
    }
  }
}

// Forward substitution L y = b, diagonal scaling and back substitution
// L^T x = y, in place on the node-major block.  Every lane runs solve()'s
// scalar chains in the same order: the forward dot s -= L(i,t) * y(t) over
// ascending t, and the back updates x(t) -= L(i,t) * x(i) over descending i.
//
// Row pairs.  The long rows come every other row, and row i + 2's profile
// nearly covers row i's, so both passes take rows i and i + 2 together where
// the profiles allow it: the forward pass runs their two dots over the shared
// slice (2P chains in flight instead of P) and finishes row i + 2 after row
// i + 1, and the back pass applies row i + 2's and then row i's update to
// each shared x(t) with one load and store, after first doing the slice of
// row i + 2 that row i + 1 (and x(i) itself) depend on.  Per element the
// operations and their order are unchanged.
template <class V, std::size_t P>
[[gnu::always_inline]] inline void substitute_kernel(const Profile& pr, const double* vals,
                                                     double* y) {
  constexpr std::size_t W = kLanes<V>, S = P * W;
  const std::size_t* start = pr.start;
  const auto row = [&](std::size_t i) { return vals + pr.off[i] - start[i]; };
  // always_inline: a lambda does not inherit the caller's target("avx2").
  const auto forward_row = [&](std::size_t i) __attribute__((always_inline)) {
    V s[P];
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) load(s[p], y + i * S + p * W);
    forward_segment<V, P>(row(i), s, y, start[i], i);
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) store(y + i * S + p * W, s[p]);
  };
  for (std::size_t a = 0; a < pr.n;) {
    const std::size_t b = a + 2;
    if (b >= pr.n || start[b] < start[a] || start[b] >= a) {
      forward_row(a++);
      continue;
    }
    V sa[P], sb[P];
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) {
      load(sa[p], y + a * S + p * W);
      load(sb[p], y + b * S + p * W);
    }
    forward_segment<V, P>(row(a), sa, y, start[a], start[b]);
    forward_segment2<V, P>(row(a), sa, row(b), sb, y, start[b], a);
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) store(y + a * S + p * W, sa[p]);
    forward_row(a + 1);
    forward_segment<V, P>(row(b), sb, y, a, b);
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) store(y + b * S + p * W, sb[p]);
    a = b + 1;
  }

  for (std::size_t i = 0; i < pr.n; ++i) {
    const double d = pr.diag(vals, i);
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) {
      V yi;
      load(yi, y + i * S + p * W);
      yi = yi / d;
      store(y + i * S + p * W, yi);
    }
  }

  // Rows a > m > b = a - 2, descending.  Row a's slice [split, a) comes
  // first: row m's update (from start[m]) and row b's own x(b) follow it.
  for (std::size_t a = pr.n; a-- > 0;) {
    V xa[P];
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) load(xa[p], y + a * S + p * W);
    const std::size_t split = a >= 2 ? std::min(start[a - 1], a - 2) : 0;
    if (a < 2 || start[a - 2] > start[a] || start[a] >= split) {
      back_segment<V, P>(row(a), xa, y, start[a], a);
      continue;
    }
    const std::size_t m = a - 1, b = a - 2;
    back_segment<V, P>(row(a), xa, y, split, a);
    V xm[P], xb[P];
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) load(xm[p], y + m * S + p * W);
    back_segment<V, P>(row(m), xm, y, start[m], m);
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) load(xb[p], y + b * S + p * W);
    back_segment2<V, P>(row(a), xa, row(b), xb, y, start[a], split);
    back_segment<V, P>(row(b), xb, y, start[b], start[a]);
    back_segment<V, P>(row(b), xb, y, split, b);
    a = b;
  }
}

// The instantiations, one per vector width.  The AVX2 ones sit inside
// target("avx2") functions (no `fma` in the target: it would let the compiler
// contract), and the kernels are always_inline so that their bodies are
// compiled there — an out-of-line instantiation would be compiled for the
// baseline ISA and merely called from here.
bool factor_scalar(const Profile& pr, double* vals) { return factor_kernel<double, 1>(pr, vals); }
bool factor_sse2(const Profile& pr, double* vals) {
  return factor_kernel<Lane2, kFactorVectors>(pr, vals);
}

void substitute_sse2(std::size_t stride, const Profile& pr, const double* vals, double* y) {
  switch (stride) {
    case 2: substitute_kernel<Lane2, 1>(pr, vals, y); break;
    case 4: substitute_kernel<Lane2, 2>(pr, vals, y); break;
    case 6: substitute_kernel<Lane2, 3>(pr, vals, y); break;
    default: substitute_kernel<Lane2, 4>(pr, vals, y); break;
  }
}

#if XLDS_KERNELS_HAVE_AVX2
__attribute__((target("avx2"))) bool factor_avx2(const Profile& pr, double* vals) {
  return factor_kernel<Lane4, kFactorVectors>(pr, vals);
}

__attribute__((target("avx2"))) void substitute_avx2(std::size_t stride, const Profile& pr,
                                                    const double* vals, double* y) {
  if (stride == 4)
    substitute_kernel<Lane4, 1>(pr, vals, y);
  else
    substitute_kernel<Lane4, 2>(pr, vals, y);
}
#endif

}  // namespace

std::size_t NodalSolver::kernel_lanes() noexcept {
  return kernels::runtime_isa() == kernels::Isa::kAvx2 ? 4 : 2;
}

bool NodalSolver::factorize(const MatrixD& g, double g_wire, std::size_t max_bytes) {
  return factorize(g, g_wire, max_bytes, kernel_lanes());
}

bool NodalSolver::factorize(const MatrixD& g, double g_wire, std::size_t max_bytes,
                            std::size_t lanes) {
  XLDS_REQUIRE_MSG(lanes == 1 || lanes == 2 || (lanes == 4 && kernel_lanes() == 4),
                   "factor kernel width " << lanes << " is not available on this CPU");
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

  // --- profile LDL^T, in place (factor_kernel) -------------------------------
  // SPD by construction (a connected resistor network with every node tied
  // to the driver or ground); a non-positive pivot means numeric breakdown
  // — decline and let the caller use Gauss-Seidel.
  const Profile pr{n_, bw_, start_.data(), off_.data()};
  bool ok = false;
  switch (lanes) {
    case 1: ok = factor_scalar(pr, vals_.data()); break;
    case 2: ok = factor_sse2(pr, vals_.data()); break;
#if XLDS_KERNELS_HAVE_AVX2
    default: ok = factor_avx2(pr, vals_.data()); break;
#endif
  }
  if (!ok) {
    reset();
    return false;
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
  // Round the block up to whole vectors of the widest kernel the CPU runs; a
  // pair fills one SSE2 vector exactly on any CPU.
  const std::size_t width = k == 2 ? 2 : kernel_lanes();
  switch ((k + width - 1) / width * width) {
    case 2: solve_lanes<2>(v_in, i_col, res, k, ws); break;
    case 4: solve_lanes<4>(v_in, i_col, res, k, ws); break;
    case 6: solve_lanes<6>(v_in, i_col, res, k, ws); break;
    default: solve_lanes<8>(v_in, i_col, res, k, ws); break;
  }
}

template <std::size_t S>
void NodalSolver::solve_lanes(const double* v_in, double* i_col, Result* res, std::size_t k,
                              Workspace& ws) const {
  // Node-major lane block: y[i * S + j] is node i of right-hand side j.
  // Lanes j >= k pad the block; their all-zero rhs stays exactly zero.
  const double gw = g_wire_;
  core::Profiler::count_direct_solve(k);

  ws.y.assign(n_ * S, 0.0);
  double* y = ws.y.data();
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t r = 0; r < rows_; ++r) y[node_v(r, 0) * S + j] = gw * v_in[j * rows_ + r];

  // The substitutions, in place (the scalar path's separate x vector holds
  // the same values element for element).
  const Profile pr{n_, bw_, start_.data(), off_.data()};
#if XLDS_KERNELS_HAVE_AVX2
  if (S % 4 == 0 && kernel_lanes() == 4)
    substitute_avx2(S, pr, vals_.data(), y);
  else
#endif
    substitute_sse2(S, pr, vals_.data(), y);

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
