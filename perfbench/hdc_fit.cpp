// hdc_fit: digital HDC fit and inference on the isolet-like dataset.
//
// hdc::HdcModel construct -> train -> accuracy (617-d, 26 classes, D = 4096,
// 3-bit digits, squared-Euclidean similarity) with the random-projection
// encoder and with the ID-level encoder.  It runs the digital encode kernels
// and never touches a crossbar, so it is the workload a faster HDC encode
// must move and the no-change control for crossbar work.
//
// The unit calls are the batch-level train() and accuracy() calls (the test
// split scored in batches); timing them, not per-sample calls, lets an
// internally batched path show its gain.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "counters.hpp"
#include "hdc/model.hpp"
#include "util/rng.hpp"
#include "workload/dataset.hpp"

namespace perfbench {

namespace {

using namespace xlds;

/// The test split is scored in batches so a run holds enough unit calls for a
/// tail percentile.  Batch sizes give both encoders' accuracy() calls similar
/// durations, so the call times form one body (the median does not fall
/// between two clusters) and the few long train() calls stay in the tail.
struct EncoderCase {
  const char* name;
  hdc::EncoderKind kind;
  std::size_t infer_batch;
};

constexpr EncoderCase kEncoders[] = {{"projection", hdc::EncoderKind::kRandomProjection, 26},
                                     {"idlevel", hdc::EncoderKind::kIdLevel, 13}};

using Batches = std::vector<std::pair<std::vector<std::vector<double>>, std::vector<std::size_t>>>;

Batches test_batches(const workload::Dataset& ds, std::size_t size) {
  Batches out;
  for (std::size_t off = 0; off < ds.test_x.size(); off += size) {
    const auto b = static_cast<std::ptrdiff_t>(off);
    const auto e = static_cast<std::ptrdiff_t>(std::min(ds.test_x.size(), off + size));
    out.emplace_back(std::vector<std::vector<double>>(ds.test_x.begin() + b, ds.test_x.begin() + e),
                     std::vector<std::size_t>(ds.test_y.begin() + b, ds.test_y.begin() + e));
  }
  return out;
}

struct FitRun {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::vector<double> call_s;
  Checked checked;
};

/// One instance: the dataset, its test batches and both models are set-up;
/// train() and the batched accuracy() calls are timed.  With `layer`, each
/// encoder's encode() also runs over the same samples under an hdc.encode
/// span and its MAC rate is added to `layer` (traced runs only).
FitRun fit(std::uint64_t instance, Tracer& tracer, Counters* layer) {
  FitRun out;
  out.checked.key = std::to_string(instance);
  const std::int64_t t0 = now_ns();
  workload::Dataset ds;
  {
    Span s(tracer, "workload.dataset");
    ds = workload::make_named_dataset("isolet-like", instance);
  }
  std::vector<Batches> batches;
  std::vector<hdc::HdcModel> models;
  for (const EncoderCase& e : kEncoders) {
    batches.push_back(test_batches(ds, e.infer_batch));
    hdc::HdcConfig cfg;
    cfg.encoder = e.kind;
    Rng rng(instance);
    Span s(tracer, std::string("hdc.ctor.") + e.name);
    models.emplace_back(cfg, ds.dim, ds.n_classes, rng);
  }
  out.setup_s = seconds(t0, now_ns());
  out.checked.output = {{"train_samples", std::to_string(ds.train_x.size())},
                        {"test_samples", std::to_string(ds.test_x.size())}};
  for (std::size_t m = 0; m < models.size(); ++m) {
    const char* name = kEncoders[m].name;
    const std::int64_t a = now_ns();
    {
      Span s(tracer, std::string("hdc.train.") + name);
      models[m].train(ds.train_x, ds.train_y);
    }
    out.call_s.push_back(seconds(a, now_ns()));
    double correct = 0.0;
    {
      Span s(tracer, std::string("hdc.infer.") + name);
      for (const auto& [xs, ys] : batches[m]) {
        const std::int64_t b = now_ns();
        const double acc = models[m].accuracy(xs, ys);
        out.call_s.push_back(seconds(b, now_ns()));
        correct += std::round(acc * static_cast<double>(xs.size()));
      }
    }
    out.timed_s += seconds(a, now_ns());
    out.checked.output.emplace_back(std::string("accuracy.") + name,
                                    json_num(correct / static_cast<double>(ds.test_x.size())));
    if (layer != nullptr) {
      const hdc::Encoder& enc = models[m].encoder();
      const std::int64_t e0 = now_ns();
      {
        Span s(tracer, std::string("hdc.encode.") + name);
        for (const auto* split : {&ds.train_x, &ds.test_x})
          for (const std::vector<double>& x : *split) (void)enc.encode(x);
      }
      const double samples = static_cast<double>(ds.train_x.size() + ds.test_x.size());
      (*layer)[std::string("kernels.encode_gmac_per_s.") + name] +=
          static_cast<double>(enc.macs()) * samples / seconds(e0, now_ns()) * 1e-9;
    }
  }
  return out;
}

}  // namespace

RawResult run_hdc_fit(const Options& opt, Tracer& tracer) {
  RawResult raw;
  if (!tracer.enabled()) {
    for (std::size_t i = 0; i < opt.rounds; ++i) {
      FitRun run = fit(opt.instances[i % opt.instances.size()], tracer, nullptr);
      raw.setup_s.push_back(run.setup_s);
      raw.call_s.insert(raw.call_s.end(), run.call_s.begin(), run.call_s.end());
      raw.round_s.push_back(run.timed_s);
      raw.checked.push_back(std::move(run.checked));
    }
    return raw;
  }
  Tracer off(false);
  Counters layer;
  for (std::size_t i = 0; i < opt.traced_passes(); ++i) {
    const std::uint64_t instance = opt.instances[i % opt.instances.size()];
    FitRun base = fit(instance, off, nullptr);
    const Counters before = read_profiler();
    FitRun traced;
    {
      Span pass(tracer, "bench.fit");
      traced = fit(instance, tracer, &layer);
    }
    accumulate(layer, counter_delta(read_profiler(), before));
    ++raw.passes;
    raw.untraced_s += base.setup_s + base.timed_s;
    raw.traced_s += traced.setup_s + traced.timed_s;
    raw.checked.push_back(std::move(base.checked));
    raw.checked.push_back(std::move(traced.checked));
  }
  raw.layer.insert(layer.begin(), layer.end());
  return raw;
}

}  // namespace perfbench
