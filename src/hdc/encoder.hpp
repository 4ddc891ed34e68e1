// Hyperdimensional-computing encoder (Sec. III, Fig. 3A).
//
// Random-projection encoding: a fixed bipolar (+1/-1) matrix P maps an
// input feature vector x to a hypervector y = P x / sqrt(F).  Bipolar
// projections are exactly what an analog crossbar realises with differential
// columns, so the same encoder can run in software or be programmed onto the
// xbar module (the "MVM operations for encoding can be performed with
// crossbar arrays" path of the case study).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace xlds::hdc {

/// Interface shared by the encoding schemes (Fig. 3A's "encoding module").
class Encoder {
 public:
  virtual ~Encoder() = default;

  virtual std::size_t input_dim() const = 0;
  virtual std::size_t hv_dim() const = 0;

  /// Real-valued hypervector for a feature vector.
  virtual std::vector<double> encode(const std::vector<double>& x) const = 0;

  /// Hypervectors for a whole split, on all util::parallel lanes: out[i] is
  /// byte-equal to encode(xs[i]) at any thread count.
  virtual std::vector<std::vector<double>> encode_batch(
      const std::vector<std::vector<double>>& xs) const = 0;

  /// Equivalent MAC count of one encode (for the architecture models).
  virtual std::size_t macs() const = 0;
};

class HdcEncoder final : public Encoder {
 public:
  HdcEncoder(std::size_t input_dim, std::size_t hv_dim, Rng& rng);

  std::size_t input_dim() const override { return input_dim_; }
  std::size_t hv_dim() const override { return hv_dim_; }

  /// Real-valued hypervector: y = P x / sqrt(input_dim).
  std::vector<double> encode(const std::vector<double>& x) const override;

  /// The whole batch through one kernels::gemm_t (P read once per call).
  std::vector<std::vector<double>> encode_batch(
      const std::vector<std::vector<double>>& xs) const override;

  /// The projection matrix as signed weights in [-1, 1] (rows = input_dim,
  /// cols = hv_dim) — directly programmable into a TiledCrossbar.
  const MatrixD& projection() const noexcept { return p_; }

  std::size_t macs() const override { return input_dim_ * hv_dim_; }

 private:
  std::size_t input_dim_;
  std::size_t hv_dim_;
  MatrixD p_;  ///< [input_dim x hv_dim], entries +1/-1
};

/// Record-based (ID-level) encoding, the other canonical HDC scheme: each
/// feature gets a random bipolar *identity* hypervector; each feature value
/// selects a *level* hypervector from a flip-interpolated family (nearby
/// values share most elements); the record is the sum of ID (x) LEVEL binds.
/// Bind is elementwise multiply, so the whole encode is add/multiply only —
/// the scheme hardware prefers when no MVM engine is available.
///
/// Every bind product is +-1, so each record element is the exact integer
/// input_dim - 2 * (number of features whose ID and LEVEL signs differ).  The
/// hypervectors are stored as sign bytes and encode counts those mismatches
/// (kernels::count_sign_mismatches), then scales the integer once — the same
/// double the +-1.0 multiply-add chain produced, in any order.
class IdLevelEncoder final : public Encoder {
 public:
  /// `quant_levels` level hypervectors span the [lo, hi] input range.
  IdLevelEncoder(std::size_t input_dim, std::size_t hv_dim, std::size_t quant_levels, Rng& rng,
                 double lo = 0.0, double hi = 1.0);

  std::size_t input_dim() const override { return input_dim_; }
  std::size_t hv_dim() const override { return hv_dim_; }

  std::vector<double> encode(const std::vector<double>& x) const override;
  std::vector<std::vector<double>> encode_batch(
      const std::vector<std::vector<double>>& xs) const override;

  std::size_t macs() const override { return input_dim_ * hv_dim_; }

  /// Level index a value maps to (clamped).
  std::size_t level_of(double v) const;

  /// Hamming similarity between two level hypervectors — nearby levels must
  /// be similar (the property the flip construction guarantees).
  double level_similarity(std::size_t a, std::size_t b) const;

 private:
  /// Encode n feature vectors (input_dim values each) into ys (hv_dim each).
  void encode_into(const double* const* xs, std::size_t n, double* const* ys) const;

  std::size_t input_dim_;
  std::size_t hv_dim_;
  std::size_t quant_levels_;
  double lo_, hi_;
  std::vector<std::uint8_t> ids_;     ///< [input_dim x hv_dim] sign bytes, 1 = +1
  std::vector<std::uint8_t> levels_;  ///< [quant_levels x hv_dim] sign bytes, 1 = +1
};

/// Uniform quantiser for hypervector elements: maps reals in [-range, range]
/// to integer digits [0, 2^bits - 1] (clamping outside the range).  The HDC
/// precision studies (Fig. 3C) sweep `bits`.
class ElementQuantiser {
 public:
  ElementQuantiser(int bits, double range);

  int bits() const noexcept { return bits_; }
  int levels() const noexcept { return 1 << bits_; }
  double range() const noexcept { return range_; }

  int digit(double v) const;
  std::vector<int> digits(const std::vector<double>& v) const;

  /// Centre value of a digit's bucket (dequantisation).
  double value(int digit) const;

 private:
  int bits_;
  double range_;
};

}  // namespace xlds::hdc
