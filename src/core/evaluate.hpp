// Analytical FOM evaluation of surviving design points (the "triage" stage
// the paper argues for in Secs. VI/VII): fast enough to score the whole
// space, calibrated enough to rank it.  Deep dives then go to the functional
// simulators (cam/xbar/hdc/mann) and the system simulator (sim).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/design_space.hpp"
#include "evacam/evacam.hpp"
#include "util/memo.hpp"
#include "xbar/crossbar.hpp"

namespace xlds::core {

/// Coarse application profile (the Fig. 6 inset: profile the workload first).
struct AppProfile {
  std::string name = "isolet-like";
  std::size_t input_dim = 617;
  std::size_t n_classes = 26;
  std::size_t am_entries = 512;     ///< prototypes stored for search-based algos
  std::size_t hv_dim = 2048;        ///< HDC hypervector length
  std::size_t mlp_macs = 400'000;   ///< per-inference MACs of the MLP solution
  std::size_t cnn_macs = 2'000'000; ///< per-inference MACs of the CNN solution
  double writes_per_inference = 0.0;  ///< AM/weight updates (online learning)
  std::size_t batch = 1;
};

/// Profiles for the named workload presets.
AppProfile profile_for(const std::string& application);

/// Evaluated figures of merit for one design point.
struct Fom {
  double latency = 0.0;   ///< s per inference (at the profile's batch)
  double energy = 0.0;    ///< J per inference
  double area_mm2 = 0.0;  ///< accelerator silicon (0 for rented platforms)
  double accuracy = 0.0;  ///< estimated task accuracy in [0, 1]
  bool feasible = true;
  std::string note;
};

/// Accuracy oracle: maps a design point to estimated accuracy.  The default
/// oracle is a calibrated heuristic; benches substitute measured values from
/// the functional simulators.
using AccuracyOracle = std::function<double(const DesignPoint&, const AppProfile&)>;

double default_accuracy_oracle(const DesignPoint& p, const AppProfile& profile);

/// The canonical CAM macro a design point's associative-search stage maps to
/// (capacity from the profile, cell topology from the device).  Shared with
/// the DSE fidelity ladder so higher-fidelity refinements analyse the same
/// macro the analytic tier costed.
evacam::CamDesignSpec cam_spec_for_point(const DesignPoint& p, const AppProfile& profile);

class Evaluator {
 public:
  explicit Evaluator(AccuracyOracle oracle = default_accuracy_oracle);

  /// Score one point.  Points that fail workload-dependent feasibility
  /// (e.g. endurance vs write traffic) come back with feasible = false.
  Fom evaluate(const DesignPoint& p, const AppProfile& profile) const;

  /// Score every enumerated point in parallel (the triage sweep hot path).
  /// Returns one Fom per input index; culled points come back infeasible
  /// with the cull reason as the note.  Results are bit-identical at any
  /// XLDS_THREADS as long as the oracle is a pure function (the default is).
  std::vector<Fom> evaluate_all(const std::vector<EnumeratedPoint>& points,
                                const AppProfile& profile) const;

  /// Counters of this evaluator's memos: the canonical crossbar tile cost
  /// (keyed by device kind) and the Eva-CAM projections (keyed by the full
  /// CamDesignSpec).  Entries are pure functions of their key, so the memos
  /// never change a result — only the sweep's wall clock — and a new
  /// evaluator starts cold.
  util::MemoStats tile_cost_stats() const { return tile_costs_.stats(); }
  util::MemoStats cam_fom_stats() const { return cam_foms_.stats(); }

 private:
  Fom evaluate_digital(const DesignPoint& p, const AppProfile& profile) const;
  Fom evaluate_in_memory(const DesignPoint& p, const AppProfile& profile) const;
  /// Latency/energy of `macs` worth of MVM work on tiled crossbars.
  xbar::MvmCost tiled_mvm_cost(device::DeviceKind dev, double macs) const;

  AccuracyOracle oracle_;
  mutable util::Memo<device::DeviceKind, xbar::MvmCost> tile_costs_;
  mutable util::Memo<evacam::CamDesignSpec, evacam::CamFom, evacam::CamSpecHash> cam_foms_;
};

}  // namespace xlds::core
