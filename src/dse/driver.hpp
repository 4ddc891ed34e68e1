// Pluggable search strategies over a SearchSpace.
//
// A driver decides *which* (point, fidelity) pairs to request next; the
// engine owns *how* they get valued — memo map, journal, result cache,
// batched parallel evaluation, budget accounting.  The split keeps every strategy trivially
// resumable: a driver's trajectory is a pure function of its seed and the
// FOM values it receives, and FOM values are pure functions of the job
// (never of wall-clock, thread count, or journal state), so re-running a
// driver against a journal-warmed backend replays the exact trajectory of
// the run that died.
//
// Budget discipline: the backend charges one unit for each (index, tier)
// pair the *driver* requests for the first time — even when the value comes
// back instantly from the journal.  Charging journal hits is what makes
// resume bit-identical: a resumed run spends budget at the same points in
// its trajectory as the uninterrupted run, it just pays microseconds instead
// of model time.  Structural culls (core::incompatibility) are free, exactly
// as they are for the brute-force enumeration the acceptance tests compare
// against.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "dse/fidelity.hpp"
#include "dse/space.hpp"
#include "util/rng.hpp"

namespace xlds::dse {

/// One valued (point, tier) request handed back to a driver.
struct Evaluation {
  std::size_t index = 0;
  Fidelity fidelity = Fidelity::kAnalytic;
  core::Fom fom;
  /// Surrogate relative-std (kSurrogate requests only; 0 for physics tiers).
  double uncertainty = 0.0;
};

/// What a driver may assume about the engine's learned tier-0 model.
struct SurrogateStatus {
  bool enabled = false;  ///< the job turned the surrogate rung on
  bool ready = false;    ///< a kSurrogate request would be served right now
  /// Promotion threshold: predictions with uncertainty above this should buy
  /// a real-tier evaluation.
  double promote_uncertainty = 0.0;
};

/// The engine-owned evaluation service drivers request work from.
class EvaluationBackend {
 public:
  virtual ~EvaluationBackend() = default;

  virtual const SearchSpace& space() const = 0;

  /// Top rung of the fidelity ladder for this job.  Single-tier strategies
  /// (random, LHS, NSGA-II) evaluate everything here; successive halving
  /// climbs to it.
  virtual Fidelity max_fidelity() const = 0;

  /// Unique (index, tier) charges the budget still admits.
  virtual std::size_t remaining_budget() const = 0;

  /// True when this run has already been charged for (index, tier).
  /// Re-requesting such a pair is free.  Deliberately says nothing about
  /// journal contents — trajectories must not depend on them.
  virtual bool requested(std::size_t index, Fidelity tier) const = 0;

  /// Value `indices` at `tier`, in input order.  Culled points come back
  /// infeasible for free; pairs new to this run are charged and must fit in
  /// remaining_budget() (PreconditionError otherwise — drivers truncate).
  /// tier == kSurrogate is served by the engine's learned model instead of
  /// the physics ladder, charged against surrogate_capacity().
  virtual std::vector<Evaluation> evaluate(const std::vector<std::size_t>& indices,
                                           Fidelity tier) = 0;

  /// Learned-model availability.  Default: no surrogate (keeps non-engine
  /// backends — tests, benches — source-compatible).
  virtual SurrogateStatus surrogate_status() const { return {}; }

  /// Fresh kSurrogate queries the budget still admits (queries are exchanged
  /// for ladder charges at the job's queries_per_charge rate, so they are
  /// near-zero cost but not free).
  virtual std::size_t surrogate_capacity() const { return 0; }
};

struct DriverParams {
  /// NSGA-II population size (clamped to the viable space).
  std::size_t population = 24;
  /// NSGA-II per-pair crossover probability (else clone-and-mutate).
  double crossover_prob = 0.9;
  /// NSGA-II stops after this many consecutive generations that charged no
  /// new (point, tier) pair — the search has stopped discovering.
  std::size_t stall_generations = 4;
  /// Successive-halving reduction factor (> 1): survivors per rung shrink
  /// by ~eta while model cost climbs one fidelity tier.
  double halving_eta = 3.0;
};

class SearchDriver {
 public:
  virtual ~SearchDriver() = default;
  virtual std::string name() const = 0;
  /// Run until the budget is exhausted or the strategy converges.  `rng` is
  /// the driver's private deterministic stream (forked from the job seed).
  virtual void run(EvaluationBackend& backend, Rng& rng) = 0;
};

/// Factory for the built-in strategies: "random", "lhs", "nsga2", "halving".
/// PreconditionError on an unknown name.
std::unique_ptr<SearchDriver> make_driver(const std::string& strategy,
                                          const DriverParams& params = {});

/// Names accepted by make_driver, for CLI help and validation.
const std::vector<std::string>& driver_names();

}  // namespace xlds::dse
