#include "hdc/encoder.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/bitpack.hpp"
#include "kernels/mvm.hpp"
#include "kernels/sampler.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace xlds::hdc {

namespace {
void require_width(const std::vector<std::vector<double>>& xs, std::size_t width) {
  for (const std::vector<double>& x : xs)
    XLDS_REQUIRE_MSG(x.size() == width, "encode: input " << x.size() << " != " << width);
}
}  // namespace

HdcEncoder::HdcEncoder(std::size_t input_dim, std::size_t hv_dim, Rng& rng)
    : input_dim_(input_dim), hv_dim_(hv_dim), p_(input_dim, hv_dim) {
  XLDS_REQUIRE(input_dim >= 1 && hv_dim >= 1);
  for (double& v : p_.data()) v = rng.bernoulli(0.5) ? 1.0 : -1.0;
}

std::vector<double> HdcEncoder::encode(const std::vector<double>& x) const {
  XLDS_REQUIRE_MSG(x.size() == input_dim_, "encode: input " << x.size() << " != " << input_dim_);
  std::vector<double> y(hv_dim_);
  kernels::matvec_t(p_.data().data(), input_dim_, hv_dim_, x.data(), y.data());
  const double scale = 1.0 / std::sqrt(static_cast<double>(input_dim_));
  for (double& v : y) v *= scale;
  return y;
}

std::vector<std::vector<double>> HdcEncoder::encode_batch(
    const std::vector<std::vector<double>>& xs) const {
  require_width(xs, input_dim_);
  std::vector<std::vector<double>> out(xs.size(), std::vector<double>(hv_dim_));
  std::vector<const double*> in(xs.size());
  std::vector<double*> y(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    in[i] = xs[i].data();
    y[i] = out[i].data();
  }
  kernels::gemm_t(p_.data().data(), input_dim_, hv_dim_, in.data(), xs.size(), y.data());
  const double scale = 1.0 / std::sqrt(static_cast<double>(input_dim_));
  for (std::vector<double>& row : out)
    for (double& v : row) v *= scale;
  return out;
}

IdLevelEncoder::IdLevelEncoder(std::size_t input_dim, std::size_t hv_dim,
                               std::size_t quant_levels, Rng& rng, double lo, double hi)
    : input_dim_(input_dim), hv_dim_(hv_dim), quant_levels_(quant_levels), lo_(lo), hi_(hi) {
  XLDS_REQUIRE(input_dim >= 1 && hv_dim >= 8);
  XLDS_REQUIRE(quant_levels >= 2);
  XLDS_REQUIRE(hi > lo);

  // Sign bytes drawn in the order the +-1.0 doubles were: every ID element,
  // row by row, then level 0 (fill_bernoulli consumes rng.bernoulli's draws).
  ids_.resize(input_dim_ * hv_dim_);
  kernels::fill_bernoulli(rng, ids_.data(), ids_.size(), 0.5);

  // Flip construction: L0 is random; each subsequent level flips a fresh
  // slice, with hv_dim/2 elements flipped in total across the range, so L0
  // and L_{max} end up ~orthogonal while neighbours stay maximally similar.
  levels_.resize(quant_levels_ * hv_dim_);
  kernels::fill_bernoulli(rng, levels_.data(), hv_dim_, 0.5);
  const std::vector<std::size_t> flip_order = rng.permutation(hv_dim_);
  const std::size_t total_flips = hv_dim_ / 2;
  const std::size_t per_level = total_flips / (quant_levels_ - 1);
  for (std::size_t l = 1; l < quant_levels_; ++l) {
    std::uint8_t* level = levels_.data() + l * hv_dim_;
    std::copy_n(level - hv_dim_, hv_dim_, level);
    const std::size_t begin = (l - 1) * per_level;
    const std::size_t end = l + 1 == quant_levels_ ? total_flips : begin + per_level;
    for (std::size_t i = begin; i < end && i < hv_dim_; ++i) level[flip_order[i]] ^= 1u;
  }
}

std::size_t IdLevelEncoder::level_of(double v) const {
  const double t = std::clamp((v - lo_) / (hi_ - lo_), 0.0, 1.0);
  return std::min(static_cast<std::size_t>(t * static_cast<double>(quant_levels_)),
                  quant_levels_ - 1);
}

double IdLevelEncoder::level_similarity(std::size_t a, std::size_t b) const {
  XLDS_REQUIRE(a < quant_levels_ && b < quant_levels_);
  const std::uint8_t* la = levels_.data() + a * hv_dim_;
  const std::uint8_t* lb = levels_.data() + b * hv_dim_;
  std::size_t same = 0;
  for (std::size_t i = 0; i < hv_dim_; ++i)
    if (la[i] == lb[i]) ++same;
  return static_cast<double>(same) / static_cast<double>(hv_dim_);
}

void IdLevelEncoder::encode_into(const double* const* xs, std::size_t n,
                                 double* const* ys) const {
  std::vector<std::uint32_t> level_rows(n * input_dim_);
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t f = 0; f < input_dim_; ++f)
      level_rows[s * input_dim_ + f] = static_cast<std::uint32_t>(level_of(xs[s][f]));
  std::vector<std::uint32_t> mismatches(n * hv_dim_);
  kernels::count_sign_mismatches(ids_.data(), levels_.data(), level_rows.data(), input_dim_,
                                 hv_dim_, n, mismatches.data());
  const auto features = static_cast<std::int64_t>(input_dim_);
  const double scale = 1.0 / std::sqrt(static_cast<double>(input_dim_));
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t* m = mismatches.data() + s * hv_dim_;
    for (std::size_t d = 0; d < hv_dim_; ++d)
      ys[s][d] = static_cast<double>(features - 2 * static_cast<std::int64_t>(m[d])) * scale;
  }
}

std::vector<double> IdLevelEncoder::encode(const std::vector<double>& x) const {
  XLDS_REQUIRE_MSG(x.size() == input_dim_, "encode: input " << x.size() << " != " << input_dim_);
  std::vector<double> y(hv_dim_);
  const double* in = x.data();
  double* out = y.data();
  encode_into(&in, 1, &out);
  return y;
}

std::vector<std::vector<double>> IdLevelEncoder::encode_batch(
    const std::vector<std::vector<double>>& xs) const {
  require_width(xs, input_dim_);
  const std::size_t n = xs.size();
  std::vector<std::vector<double>> out(n, std::vector<double>(hv_dim_));
  // Samples are independent, so the chunking only sets how many samples
  // share one pass over the ID tiles; it never changes a byte.
  parallel_for(n, std::clamp<std::size_t>((n + 7) / 8, 1, 16),
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 std::vector<const double*> in(end - begin);
                 std::vector<double*> y(end - begin);
                 for (std::size_t i = begin; i < end; ++i) {
                   in[i - begin] = xs[i].data();
                   y[i - begin] = out[i].data();
                 }
                 encode_into(in.data(), end - begin, y.data());
               });
  return out;
}

ElementQuantiser::ElementQuantiser(int bits, double range) : bits_(bits), range_(range) {
  XLDS_REQUIRE(bits >= 1 && bits <= 16);
  XLDS_REQUIRE(range > 0.0);
}

int ElementQuantiser::digit(double v) const {
  const int n = levels();
  const double t = (std::clamp(v, -range_, range_) + range_) / (2.0 * range_);
  const int d = static_cast<int>(t * n);
  return std::clamp(d, 0, n - 1);
}

std::vector<int> ElementQuantiser::digits(const std::vector<double>& v) const {
  std::vector<int> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = digit(v[i]);
  return out;
}

double ElementQuantiser::value(int d) const {
  XLDS_REQUIRE(d >= 0 && d < levels());
  const double bucket = 2.0 * range_ / static_cast<double>(levels());
  return -range_ + (static_cast<double>(d) + 0.5) * bucket;
}

}  // namespace xlds::hdc
