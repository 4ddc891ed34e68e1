// serve_drift: closed-loop HDC serving under device drift.
//
// serve::ServingLoop::run on a default ServedHdcModel (analog encode on nodal
// RRAM tiles, FeFET CAM search) under the accuracy watchdog, with open-loop
// Poisson arrivals in virtual time at 0.7 utilisation.  Nearly all host time
// is crossbar nodal solves (reads) and refactorizations after aging, so this
// is the workload a faster xbar layer must move.
//
// The unit call is one control tick, timed by a policy wrapper that
// timestamps every on_check.  The loop is one library call, so the traced
// run attributes its time per layer by replaying the loop's call pattern
// (aging steps, refreshes, batched encode, in-order CAM searches) from the
// tick log of a real run.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "counters.hpp"
#include "serve/model.hpp"
#include "serve/policy.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "workload/dataset.hpp"

namespace perfbench {

namespace {

using namespace xlds;

constexpr std::size_t kRequests = 1024;

serve::ServingConfig serving_config(std::uint64_t instance) {
  serve::ServingConfig cfg;
  cfg.total_requests = kRequests;
  cfg.seed = instance;
  return cfg;
}

// The watchdog as the serving bench configures it: trigger a guard margin
// above the floor, backoff re-arming after about a quarter window refill.
std::unique_ptr<serve::RecalibrationPolicy> make_watchdog(const serve::ServingConfig& cfg) {
  const double trigger = cfg.accuracy_floor + 0.03;
  const double backoff0 = 0.25 * static_cast<double>(cfg.accuracy_window) /
                          (cfg.target_utilisation / cfg.base_service_s);
  return serve::make_accuracy_watchdog(trigger, cfg.floor_min_samples, backoff0, 4.0 * backoff0);
}

struct TickLog {
  std::int64_t at_ns;
  serve::PolicyContext ctx;
  serve::PolicyAction action;
};

/// Wraps a policy and timestamps every control tick, logging what the
/// policy saw and did.
class TickTimer final : public serve::RecalibrationPolicy {
 public:
  explicit TickTimer(std::unique_ptr<serve::RecalibrationPolicy> inner)
      : inner_(std::move(inner)) {}

  const char* name() const noexcept override { return inner_->name(); }

  serve::PolicyAction on_check(const serve::PolicyContext& ctx) override {
    const std::int64_t t = now_ns();
    const serve::PolicyAction action = inner_->on_check(ctx);
    ticks_.push_back({t, ctx, action});
    return action;
  }

  /// Close the last tick when the loop returns.
  void finish() { end_ns_ = now_ns(); }

  std::vector<double> tick_seconds() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < ticks_.size(); ++i)
      out.push_back(seconds(ticks_[i].at_ns, i + 1 < ticks_.size() ? ticks_[i + 1].at_ns : end_ns_));
    return out;
  }

  const std::vector<TickLog>& ticks() const { return ticks_; }

 private:
  std::unique_ptr<serve::RecalibrationPolicy> inner_;
  std::vector<TickLog> ticks_;
  std::int64_t end_ns_ = 0;
};

struct LoopRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> tick_s;
  std::vector<TickLog> ticks;
  serve::ServingReport report;
};

LoopRun run_loop(std::uint64_t instance) {
  LoopRun out;
  const serve::ServingConfig cfg = serving_config(instance);
  const std::int64_t t0 = now_ns();
  serve::ServedHdcModel model(serve::ServedModelConfig{}, instance);
  const std::int64_t t1 = now_ns();
  TickTimer policy(make_watchdog(cfg));
  out.report = serve::ServingLoop(cfg).run(model, policy);
  policy.finish();
  const std::int64_t t2 = now_ns();
  out.setup_s = seconds(t0, t1);
  out.run_s = seconds(t1, t2);
  out.tick_s = policy.tick_seconds();
  out.ticks = policy.ticks();
  return out;
}

Checked checked_run(std::uint64_t instance, const LoopRun& run) {
  return {std::to_string(instance), serving_outputs(run.report)};
}

/// Replays the loop's call pattern on a fresh model with per-layer spans:
/// the same aging steps and refreshes the real run's ticks logged, and per
/// tick one batched encode plus in-order CAM searches over requests drawn
/// from a same-shaped request pool.  Returns the CAM searches issued.
double replay(std::uint64_t instance, const std::vector<TickLog>& ticks, Tracer& tracer) {
  const serve::ServingConfig cfg = serving_config(instance);
  const serve::ServedModelConfig mc;
  workload::Dataset pool;
  {
    Span s(tracer, "workload.dataset");
    pool = workload::make_gaussian_clusters(mc.data, instance);
  }
  std::unique_ptr<serve::ServedHdcModel> model;
  {
    Span s(tracer, "serve.setup");
    model = std::make_unique<serve::ServedHdcModel>(mc, instance);
  }
  Rng pick(instance, 0x7e91a7);
  double searches = 0.0;
  double aged = 0.0;
  for (std::size_t k = 0; k < ticks.size(); ++k) {
    const serve::PolicyContext& ctx = ticks[k].ctx;
    if (ctx.device_age > aged) {
      Span s(tracer, "serve.age");
      model->age(ctx.device_age - aged);
    }
    aged = ctx.device_age;
    const serve::ActionKind kind = ticks[k].action.kind;
    const bool refresh = (kind == serve::ActionKind::kRefresh && !ctx.recal_in_flight) ||
                         (kind == serve::ActionKind::kSwapToSpare && ctx.spare_ready);
    if (refresh) {
      {
        Span s(tracer, "serve.refresh");
        model->refresh_cam();
      }
      Span s(tracer, "serve.repair");
      model->repair_encoder(cfg.repair_threshold_fraction);
    }
    const std::size_t begin = k * cfg.check_interval;
    const std::size_t n = std::min(cfg.check_interval, cfg.total_requests - begin);
    Span s(tracer, "serve.classify");
    MatrixD xs(n, pool.dim, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& x = pool.test_x[pick.uniform_u32(static_cast<std::uint32_t>(pool.test_x.size()))];
      std::copy(x.begin(), x.end(), xs.row_data(i));
    }
    std::vector<std::vector<int>> digits;
    {
      Span e(tracer, "xbar.encode");
      digits = model->inference().query_digits_batch(xs);
    }
    Span c(tracer, "cam.search");
    for (const std::vector<int>& q : digits) {
      model->inference().classify_digits(q, ctx.votes);
      searches += 1.0;
    }
  }
  return searches;
}

}  // namespace

RawResult run_serve_drift(const Options& opt, Tracer& tracer) {
  RawResult raw;
  if (!tracer.enabled()) {
    for (std::size_t i = 0; i < opt.rounds; ++i) {
      const std::uint64_t instance = opt.instances[i % opt.instances.size()];
      const LoopRun run = run_loop(instance);
      raw.setup_s.push_back(run.setup_s);
      raw.call_s.insert(raw.call_s.end(), run.tick_s.begin(), run.tick_s.end());
      raw.round_s.push_back(run.run_s);
      raw.checked.push_back(checked_run(instance, run));
    }
    return raw;
  }
  // Traced: per pass the real loop runs (checked; its library counters are
  // the layer counts), then its call pattern is replayed untraced (the
  // overhead baseline) and traced (the per-layer spans).
  Tracer off(false);
  Counters counts;
  double searches = 0.0;
  for (std::size_t i = 0; i < opt.traced_passes(); ++i) {
    const std::uint64_t instance = opt.instances[i % opt.instances.size()];
    const Counters before = read_profiler();
    const LoopRun run = run_loop(instance);
    accumulate(counts, counter_delta(read_profiler(), before));
    const std::int64_t t0 = now_ns();
    replay(instance, run.ticks, off);
    const std::int64_t t1 = now_ns();
    {
      Span pass(tracer, "bench.replay");
      searches += replay(instance, run.ticks, tracer);
    }
    ++raw.passes;
    raw.untraced_s += seconds(t0, t1);
    raw.traced_s += seconds(t1, now_ns());
    raw.checked.push_back(checked_run(instance, run));
  }
  raw.layer.insert(counts.begin(), counts.end());
  raw.layer["cam.searches"] = searches;
  return raw;
}

}  // namespace perfbench
