// The fidelity ladder: the same design point costed at four model tiers.
//
// The codebase has always contained cheap-to-expensive models of the same
// physics — the analytic triage FOMs (core::Evaluator), the Gauss-Seidel
// nodal IR-drop solve and the variation-aware Eva-CAM margins, and the
// Monte-Carlo fault/variation accuracy measurements (fault::
// ResilienceEvaluator) — but only ever ran them in separate benches.  The
// ladder stacks them so a search can spend almost all of its budget at the
// ~microsecond analytic tier and promote only shortlisted survivors up the
// rungs, the way XBTorch/LASANA-style co-design flows make large analog
// spaces tractable:
//
//   kSurrogate   learned regression-forest prediction trained on this job's
//                journal history (src/surrogate/) — no physics at all
//   kAnalytic    analytic FOM projection (the brute-force triage model)
//   kNodal       + nodal IR-drop error on the crossbar tile, + Eva-CAM
//                sense margins re-derived under device variation
//   kMonteCarlo  + measured fault/aging accuracy ratio from the resilience
//                probe grid and the BER-derived weight-storage derate
//
// Each physics rung is a pure function of (point, tier, config, profile): no
// hidden state, so values are journal-cacheable and bit-identical at any
// XLDS_THREADS.  Digital platform points refine to themselves — there is no
// in-memory physics to re-model — which keeps ladder comparisons fair: the
// baselines never pay fictitious penalties.
//
// kSurrogate is the exception that proves the rule: its value is a function
// of the *training history*, not of the job alone, so the ladder refuses to
// evaluate it — the engine owns the model, and journals every prediction so
// that a resumed run replays the same values the model produced the first
// time regardless of how the refit schedule would land on replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/design_space.hpp"
#include "core/evaluate.hpp"
#include "fault/resilience.hpp"
#include "util/memo.hpp"

namespace xlds::dse {

enum class Fidelity : std::uint32_t {
  kSurrogate = 0,
  kAnalytic = 1,
  kNodal = 2,
  kMonteCarlo = 3,
};

constexpr std::size_t kFidelityTiers = 4;

std::string to_string(Fidelity f);
Fidelity fidelity_from_string(const std::string& name);

struct FidelityConfig {
  /// Top physics rung for the job (>= kAnalytic: the surrogate rung is not a
  /// ladder tier, it sits below the ladder and is served by the engine).
  Fidelity max_fidelity = Fidelity::kAnalytic;
  /// kNodal: relative device-to-device conductance spread folded into the
  /// Eva-CAM sense-margin analysis.
  double variation_sigma_rel = 0.05;
  /// kNodal: accuracy sensitivity to the nodal-vs-analytic column-current
  /// error (fractional accuracy lost per unit relative error).
  double ir_drop_sensitivity = 0.2;
  /// kMonteCarlo: stuck-cell rate and storage age of the resilience probe.
  double mc_fault_rate = 0.02;
  double mc_age_s = 1.0e7;
  /// kMonteCarlo: probe stream.  Deliberately independent of the *search*
  /// seed: FOM values must not change when only the search trajectory does,
  /// or journals could never be shared across strategies/seeds.
  std::uint64_t mc_seed = 99;
};

/// One ladder serves one job.  It owns the job's memos — the analytic tier's
/// core::Evaluator (tile costs, Eva-CAM projections), the per-device nodal
/// IR-drop errors and the Monte-Carlo probe report — so a new ladder starts
/// cold by construction.  The probe's seed-level training contexts are the
/// one process-wide memo (fault::resilience_cache_stats()).
class FidelityLadder {
 public:
  FidelityLadder(FidelityConfig config, core::AppProfile profile,
                 core::AccuracyOracle oracle = core::default_accuracy_oracle);

  const FidelityConfig& config() const noexcept { return config_; }
  const core::AppProfile& profile() const noexcept { return profile_; }

  /// Evaluate `p` at `tier` (refining every rung below it).  Pure function
  /// of (p, tier) for a fixed ladder; results are thread-count independent.
  /// PreconditionError on kSurrogate — that tier has no physics to run.
  /// Same as evaluate_batch({p}, tier)[0].
  core::Fom evaluate(const core::DesignPoint& p, Fidelity tier) const;

  /// evaluate() over a batch, out[i] == evaluate(points[i], tier) on every
  /// field.  Three stages, each one parallel_for: analytic FOMs (and the
  /// Eva-CAM variation margins); the distinct shared physics artifacts the
  /// batch needs (one IR-error tile per crossbar device, one resilience
  /// probe) as sibling tasks; then the per-point refinements, which only read
  /// those memoised artifacts.  Every artifact is a pure function of its key,
  /// so the stages move only when and where work runs, never a value.
  /// `busy_ns`, when given, receives the lane time spent in all three stages.
  std::vector<core::Fom> evaluate_batch(const std::vector<core::DesignPoint>& points,
                                        Fidelity tier, std::uint64_t* busy_ns = nullptr) const;

  /// Identity hash of everything evaluate() depends on besides the point —
  /// folded into the journal job hash.  max_fidelity enters in the ladder's
  /// original 3-tier numbering (analytic = 0) so journals written before the
  /// surrogate rung existed keep their job hash and resume cleanly.
  std::uint64_t hash(std::uint64_t h) const;

 private:
  core::Fom refine_nodal(const core::DesignPoint& p, core::Fom fom,
                         const evacam::CamFom& var) const;
  core::Fom refine_monte_carlo(const core::DesignPoint& p, core::Fom fom) const;
  double nodal_ir_error(device::DeviceKind dev) const;
  fault::ResilienceReport probe_report() const;

  FidelityConfig config_;
  core::AppProfile profile_;
  core::Evaluator evaluator_;
  mutable util::Memo<device::DeviceKind, double> ir_errors_;
  /// One slot (key 0): the probe is fixed by config_'s (rate, age, seed).
  mutable util::Memo<int, fault::ResilienceReport> probe_;
};

}  // namespace xlds::dse
