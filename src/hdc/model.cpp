#include "hdc/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "kernels/bitpack.hpp"
#include "kernels/mvm.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace xlds::hdc {

namespace {
std::unique_ptr<Encoder> make_encoder(const HdcConfig& config, std::size_t input_dim, Rng& rng) {
  switch (config.encoder) {
    case EncoderKind::kRandomProjection:
      return std::make_unique<HdcEncoder>(input_dim, config.hv_dim, rng);
    case EncoderKind::kIdLevel:
      // Inputs arrive centred (per-dimension mean removed): level HVs span a
      // symmetric band around zero.
      // Inputs arrive z-scored for this encoder: +-3 sigma covers the range.
      return std::make_unique<IdLevelEncoder>(input_dim, config.hv_dim, config.id_level_quant,
                                              rng, -3.0, 3.0);
  }
  XLDS_ASSERT(false);
}
}  // namespace

HdcModel::HdcModel(HdcConfig config, std::size_t input_dim, std::size_t n_classes, Rng& rng)
    : config_(config),
      n_classes_(n_classes),
      encoder_(make_encoder(config, input_dim, rng)),
      acc_(n_classes, std::vector<double>(config.hv_dim, 0.0)),
      acc_scale_(n_classes, 0.0),
      digits_(n_classes),
      unit_(n_classes),
      unit_norm2_(n_classes, 0.0),
      dequant_(n_classes),
      dequant_norm2_(n_classes, 0.0),
      packed_digits_(n_classes) {
  XLDS_REQUIRE(n_classes >= 2);
  XLDS_REQUIRE(config_.hv_dim >= 8);
  XLDS_REQUIRE(config_.element_bits >= 1 && config_.element_bits <= 16);
}

ElementQuantiser HdcModel::quantiser() const {
  return ElementQuantiser(config_.element_bits, quant_range_);
}

void HdcModel::refresh_quantiser() {
  for (std::size_t cls = 0; cls < n_classes_; ++cls) refresh_class_cache(cls);
}

void HdcModel::refresh_class_cache(std::size_t cls) {
  const ElementQuantiser q(config_.element_bits, quant_range_);
  const double scale = std::max(acc_scale_[cls], 1.0);
  std::vector<int>& d = digits_[cls];
  d.resize(config_.hv_dim);
  for (std::size_t i = 0; i < config_.hv_dim; ++i) d[i] = q.digit(acc_[cls][i] / scale);
  switch (config_.similarity) {
    case Similarity::kCosineReal: {
      // Same division and the same i-ascending squared-sum order the query
      // loop used, so the cached norm equals what cosine() recomputed.
      std::vector<double>& m = unit_[cls];
      m.resize(config_.hv_dim);
      double n2 = 0.0;
      for (std::size_t i = 0; i < config_.hv_dim; ++i) {
        m[i] = acc_[cls][i] / scale;
        n2 += m[i] * m[i];
      }
      unit_norm2_[cls] = n2;
      break;
    }
    case Similarity::kCosineQuantised: {
      std::vector<double>& cv = dequant_[cls];
      cv.resize(config_.hv_dim);
      double n2 = 0.0;
      for (std::size_t i = 0; i < config_.hv_dim; ++i) {
        cv[i] = q.value(d[i]);
        n2 += cv[i] * cv[i];
      }
      dequant_norm2_[cls] = n2;
      break;
    }
    case Similarity::kSquaredEuclideanDigits:
      // Binary digits compare by Hamming distance (delta^2 is 0 or 1), so
      // the CAM-native metric runs on packed words.
      if (config_.element_bits == 1) packed_digits_[cls] = kernels::pack_bits(d);
      break;
  }
}

std::vector<double> HdcModel::centred(const std::vector<double>& x) const {
  XLDS_REQUIRE_MSG(x.size() == feature_mean_.size(), "feature width mismatch");
  std::vector<double> out(x.size());
  const bool zscore = config_.encoder == EncoderKind::kIdLevel;
  for (std::size_t d = 0; d < x.size(); ++d) {
    out[d] = x[d] - feature_mean_[d];
    if (zscore) out[d] *= feature_inv_std_[d];
  }
  return out;
}

std::vector<std::vector<double>> HdcModel::centred(
    const std::vector<std::vector<double>>& xs) const {
  std::vector<std::vector<double>> out;
  out.reserve(xs.size());
  for (const std::vector<double>& x : xs) out.push_back(centred(x));
  return out;
}

void HdcModel::train(const std::vector<std::vector<double>>& xs,
                     const std::vector<std::size_t>& ys) {
  XLDS_REQUIRE(xs.size() == ys.size());
  XLDS_REQUIRE(!xs.empty());

  // Pass 0: per-dimension feature mean (the encoder centres on it).
  feature_mean_.assign(xs.front().size(), 0.0);
  for (const auto& x : xs) {
    XLDS_REQUIRE(x.size() == feature_mean_.size());
    for (std::size_t d = 0; d < x.size(); ++d) feature_mean_[d] += x[d];
  }
  for (double& m : feature_mean_) m /= static_cast<double>(xs.size());
  std::vector<double> var(feature_mean_.size(), 0.0);
  for (const auto& x : xs)
    for (std::size_t d = 0; d < x.size(); ++d) {
      const double delta = x[d] - feature_mean_[d];
      var[d] += delta * delta;
    }
  feature_inv_std_.assign(feature_mean_.size(), 1.0);
  for (std::size_t d = 0; d < var.size(); ++d) {
    const double sd = std::sqrt(var[d] / static_cast<double>(xs.size()));
    feature_inv_std_[d] = sd > 1e-12 ? 1.0 / sd : 1.0;
  }

  // Pass 1: encode the split in one batch, then bundle and collect element
  // statistics for the quantiser range in sample order.
  for (std::size_t y : ys) XLDS_REQUIRE(y < n_classes_);
  const std::vector<std::vector<double>> encoded = encoder_->encode_batch(centred(xs));
  RunningStats element_stats;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (double v : encoded[i]) element_stats.add(v);
    auto& a = acc_[ys[i]];
    for (std::size_t d = 0; d < config_.hv_dim; ++d) a[d] += encoded[i][d];
    acc_scale_[ys[i]] += 1.0;
  }
  quant_range_ = std::max(3.0 * element_stats.stddev(), 1e-9);
  trained_ = true;
  refresh_quantiser();

  // Perceptron-style retraining on the quantised model.
  for (std::size_t epoch = 0; epoch < config_.retrain_epochs; ++epoch) {
    std::size_t errors = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const std::size_t pred = classify_encoded(encoded[i]);
      if (pred == ys[i]) continue;
      ++errors;
      auto& good = acc_[ys[i]];
      auto& bad = acc_[pred];
      for (std::size_t d = 0; d < config_.hv_dim; ++d) {
        good[d] += config_.retrain_rate * encoded[i][d];
        bad[d] -= config_.retrain_rate * encoded[i][d];
      }
      acc_scale_[ys[i]] += config_.retrain_rate;
      acc_scale_[pred] = std::max(1.0, acc_scale_[pred] - config_.retrain_rate);
      // Only the two touched classes need requantising (and re-caching).
      for (std::size_t cls : {ys[i], pred}) refresh_class_cache(cls);
    }
    if (errors == 0) break;
  }
}

namespace {
// Cosine against a cached class vector whose squared norm is precomputed.
// The dot, the query-norm sum and the cached-norm sum all accumulate in
// ascending index order with independent accumulators — exactly what the old
// three-way fused loop produced — so the score is bit-identical.
double cosine_cached(const std::vector<double>& a, double na, const std::vector<double>& b,
                     double nb) {
  if (na == 0.0 || nb == 0.0) return 0.0;
  return kernels::dot(a.data(), b.data(), a.size()) / std::sqrt(na * nb);
}

double norm2(const std::vector<double>& v) {
  double n2 = 0.0;
  for (double x : v) n2 += x * x;
  return n2;
}
}  // namespace

std::size_t HdcModel::classify_encoded(const std::vector<double>& y) const {
  XLDS_REQUIRE_MSG(trained_, "classify before train()");
  const ElementQuantiser q(config_.element_bits, quant_range_);
  std::size_t best = 0;
  double best_score = -HUGE_VAL;
  switch (config_.similarity) {
    case Similarity::kCosineReal: {
      const double na = norm2(y);  // once per query, not once per class
      for (std::size_t cls = 0; cls < n_classes_; ++cls) {
        const double s = cosine_cached(y, na, unit_[cls], unit_norm2_[cls]);
        if (s > best_score) {
          best_score = s;
          best = cls;
        }
      }
      break;
    }
    case Similarity::kCosineQuantised: {
      const std::vector<int> qd = q.digits(y);
      std::vector<double> qv(config_.hv_dim);
      for (std::size_t d = 0; d < config_.hv_dim; ++d) qv[d] = q.value(qd[d]);
      const double na = norm2(qv);
      for (std::size_t cls = 0; cls < n_classes_; ++cls) {
        const double s = cosine_cached(qv, na, dequant_[cls], dequant_norm2_[cls]);
        if (s > best_score) {
          best_score = s;
          best = cls;
        }
      }
      break;
    }
    case Similarity::kSquaredEuclideanDigits: {
      const std::vector<int> qd = q.digits(y);
      if (config_.element_bits == 1) {
        // Binary digits: squared-Euclidean is Hamming (delta^2 is 0 or 1) and
        // both sums are exact small integers, so the packed path picks the
        // same argmin with the same first-wins tie handling.
        const kernels::PackedBits pq = kernels::pack_bits(qd);
        for (std::size_t cls = 0; cls < n_classes_; ++cls) {
          const double dist = static_cast<double>(kernels::hamming(pq, packed_digits_[cls]));
          if (-dist > best_score) {
            best_score = -dist;
            best = cls;
          }
        }
        break;
      }
      // Multi-bit digits: every delta^2 is an exact integer below 2^32, so
      // the integer sum is the double sum the scalar loop produced as long
      // as it stays below 2^53 (hv_dim < 2^21 at 16 bits).
      for (std::size_t cls = 0; cls < n_classes_; ++cls) {
        const int* __restrict pd = digits_[cls].data();
        const int* __restrict pq = qd.data();
        std::int64_t sum = 0;
        for (std::size_t d = 0; d < config_.hv_dim; ++d) {
          const std::int64_t delta = pq[d] - pd[d];
          sum += delta * delta;
        }
        const double dist = static_cast<double>(sum);
        if (-dist > best_score) {
          best_score = -dist;
          best = cls;
        }
      }
      break;
    }
  }
  return best;
}

std::size_t HdcModel::classify(const std::vector<double>& x) const {
  XLDS_REQUIRE_MSG(trained_, "classify before train()");
  return classify_encoded(encoder_->encode(centred(x)));
}

double HdcModel::accuracy(const std::vector<std::vector<double>>& xs,
                          const std::vector<std::size_t>& ys) const {
  XLDS_REQUIRE(xs.size() == ys.size());
  XLDS_REQUIRE(!xs.empty());
  XLDS_REQUIRE_MSG(trained_, "classify before train()");
  const std::vector<std::vector<double>> encoded = encoder_->encode_batch(centred(xs));
  const std::vector<unsigned char> hit =
      parallel_map<unsigned char>(xs.size(), [&](std::size_t i) -> unsigned char {
        return classify_encoded(encoded[i]) == ys[i];
      });
  const auto correct = static_cast<std::size_t>(std::count(hit.begin(), hit.end(), 1));
  return static_cast<double>(correct) / static_cast<double>(xs.size());
}

std::vector<int> HdcModel::class_digits(std::size_t cls) const {
  XLDS_REQUIRE_MSG(trained_, "class_digits before train()");
  XLDS_REQUIRE(cls < n_classes_);
  return digits_[cls];
}

std::vector<int> HdcModel::query_digits(const std::vector<double>& x) const {
  XLDS_REQUIRE_MSG(trained_, "query_digits before train()");
  const ElementQuantiser q(config_.element_bits, quant_range_);
  return q.digits(encoder_->encode(centred(x)));
}

std::vector<std::vector<int>> HdcModel::query_digits_batch(
    const std::vector<std::vector<double>>& xs) const {
  XLDS_REQUIRE_MSG(trained_, "query_digits before train()");
  const ElementQuantiser q(config_.element_bits, quant_range_);
  const std::vector<std::vector<double>> encoded = encoder_->encode_batch(centred(xs));
  std::vector<std::vector<int>> out(encoded.size());
  for (std::size_t i = 0; i < encoded.size(); ++i) out[i] = q.digits(encoded[i]);
  return out;
}

const std::vector<double>& HdcModel::class_accumulator(std::size_t cls) const {
  XLDS_REQUIRE(cls < n_classes_);
  return acc_[cls];
}

}  // namespace xlds::hdc
