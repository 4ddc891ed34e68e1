// Trainable HDC classifier (Sec. III).
//
// Training bundles (sums) the encoded hypervectors of each class into a real
// class accumulator, optionally refined by perceptron-style retraining
// epochs (misclassified samples are added to the correct class and
// subtracted from the confused one — the standard HDC recipe the case-study
// literature uses to reach iso-accuracy at low precision).  For inference,
// both the class hypervectors and the query are quantised to a configurable
// element precision; similarity is either cosine (the GPU baseline) or
// negative squared-Euclidean distance on digits (what the FeFET MCAM
// computes, Fig. 3D).
#pragma once

#include <cstddef>
#include <vector>

#include "hdc/encoder.hpp"
#include "kernels/bitpack.hpp"
#include "util/rng.hpp"
#include "workload/dataset.hpp"

namespace xlds::hdc {

enum class Similarity {
  kCosineReal,       ///< cosine on full-precision hypervectors (software baseline)
  kCosineQuantised,  ///< cosine on dequantised digits
  kSquaredEuclideanDigits,  ///< -SE distance on digits (CAM-native)
};

enum class EncoderKind {
  kRandomProjection,  ///< bipolar MVM — the crossbar-mappable scheme
  kIdLevel,           ///< record-based ID (x) LEVEL binding — MVM-free
};

struct HdcConfig {
  std::size_t hv_dim = 4096;
  int element_bits = 3;     ///< class-HV / query element precision
  std::size_t retrain_epochs = 3;
  double retrain_rate = 1.0;
  Similarity similarity = Similarity::kSquaredEuclideanDigits;
  EncoderKind encoder = EncoderKind::kRandomProjection;
  std::size_t id_level_quant = 32;  ///< level hypervectors (kIdLevel only)
};

class HdcModel {
 public:
  HdcModel(HdcConfig config, std::size_t input_dim, std::size_t n_classes, Rng& rng);

  const HdcConfig& config() const noexcept { return config_; }
  const Encoder& encoder() const noexcept { return *encoder_; }
  std::size_t n_classes() const noexcept { return n_classes_; }

  /// Fit class hypervectors on a training set.
  void train(const std::vector<std::vector<double>>& xs, const std::vector<std::size_t>& ys);

  /// Classify one input (software inference at the configured similarity).
  std::size_t classify(const std::vector<double>& x) const;

  double accuracy(const std::vector<std::vector<double>>& xs,
                  const std::vector<std::size_t>& ys) const;

  /// Quantised class hypervector as CAM digits (levels = 2^element_bits).
  std::vector<int> class_digits(std::size_t cls) const;

  /// Quantised query hypervector.
  std::vector<int> query_digits(const std::vector<double>& x) const;

  /// Quantised query hypervectors for a batch, encoded in one
  /// Encoder::encode_batch call: out[i] equals query_digits(xs[i]).
  std::vector<std::vector<int>> query_digits_batch(
      const std::vector<std::vector<double>>& xs) const;

  /// Real (pre-quantisation) class hypervector, normalised by sample count.
  const std::vector<double>& class_accumulator(std::size_t cls) const;

  /// Per-dimension training mean the encoder centres on (hardware encode
  /// paths subtract its projection digitally).
  const std::vector<double>& feature_mean() const noexcept { return feature_mean_; }

  /// The quantiser in use (range is fit from training statistics).
  ElementQuantiser quantiser() const;

 private:
  std::size_t classify_encoded(const std::vector<double>& y) const;
  void refresh_quantiser();
  /// Rebuild the per-class derived state (digits plus whichever similarity
  /// cache the configured metric reads) after acc_/acc_scale_ changed.
  void refresh_class_cache(std::size_t cls);
  /// Normalise features with per-dimension training statistics: mean-centred
  /// for the projection encoder (the common-mode offset would otherwise drown
  /// the class signal), fully z-scored for the record encoder (whose level
  /// quantiser needs a known dynamic range).
  std::vector<double> centred(const std::vector<double>& x) const;
  std::vector<std::vector<double>> centred(const std::vector<std::vector<double>>& xs) const;

  HdcConfig config_;
  std::size_t n_classes_;
  std::unique_ptr<Encoder> encoder_;
  std::vector<double> feature_mean_;
  std::vector<double> feature_inv_std_;
  std::vector<std::vector<double>> acc_;     ///< real class accumulators
  std::vector<double> acc_scale_;            ///< per-class normalisation
  std::vector<std::vector<int>> digits_;     ///< quantised class HVs
  // Similarity caches, refreshed alongside digits_.  Without them every
  // cosine query recomputed every class norm (and kCosineReal re-divided the
  // whole accumulator); the cached values are produced by the exact loops the
  // query path used, so scores are bit-identical.  Only the cache the
  // configured similarity reads is populated.
  std::vector<std::vector<double>> unit_;    ///< acc/scale (kCosineReal)
  std::vector<double> unit_norm2_;           ///< |unit|^2 per class
  std::vector<std::vector<double>> dequant_; ///< q.value(digits) (kCosineQuantised)
  std::vector<double> dequant_norm2_;        ///< |dequant|^2 per class
  std::vector<kernels::PackedBits> packed_digits_;  ///< 1-bit digits (SQE path)
  double quant_range_ = 1.0;
  bool trained_ = false;
};

}  // namespace xlds::hdc
