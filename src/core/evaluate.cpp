#include "core/evaluate.hpp"

#include <algorithm>
#include <cmath>

#include "arch/hdc_mapping.hpp"
#include "arch/mann_mapping.hpp"
#include "arch/platform.hpp"
#include "evacam/evacam.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"
#include "xbar/crossbar.hpp"

namespace xlds::core {

namespace {

// Canonical in-memory macro assumptions for triage-level estimates.
constexpr std::size_t kTileRows = 64;
constexpr std::size_t kTileLogicalCols = 32;  // 64 physical, differential
constexpr std::size_t kParallelTiles = 32;
constexpr double kLifetimeInferences = 1e9;  // deployment horizon for endurance

xbar::MvmCost compute_tile_cost(device::DeviceKind dev) {
  xbar::CrossbarConfig cfg;
  cfg.rows = kTileRows;
  cfg.cols = 2 * kTileLogicalCols;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  // PCM/FeFET tiles behave like RRAM tiles to first order for cost purposes;
  // the device distinction shows up in accuracy and endurance instead.
  (void)dev;
  Rng rng(1);
  return xbar::Crossbar(cfg, rng).mvm_cost();
}

const arch::Platform& platform_for(ArchKind arch) {
  switch (arch) {
    case ArchKind::kCpu: return arch::cpu();
    case ArchKind::kGpu: return arch::gpu();
    case ArchKind::kTpu: return arch::tpu();
    default: return arch::gpu();
  }
}

}  // namespace

evacam::CamDesignSpec cam_spec_for_point(const DesignPoint& p, const AppProfile& profile) {
  evacam::CamDesignSpec spec;
  spec.device = p.device;
  spec.cell = device::traits(p.device).terminals == 3 ? evacam::CellType::k2FeFET
                                                      : evacam::CellType::k2T2R;
  if (p.device == device::DeviceKind::kSram) spec.cell = evacam::CellType::k16T;
  if (p.device == device::DeviceKind::kMram) spec.cell = evacam::CellType::k4T2R;
  spec.match = cam::MatchType::kBest;
  spec.tech = "40nm";
  spec.words = std::max<std::size_t>(profile.am_entries, 16);
  spec.bits = 128;
  spec.subarray_rows = std::min<std::size_t>(spec.words, 256);
  spec.subarray_cols = 128;
  spec.min_distinguishable_steps = 4;
  return spec;
}

AppProfile profile_for(const std::string& application) {
  AppProfile p;
  p.name = application;
  if (application == "isolet-like") {
    p.input_dim = 617;
    p.n_classes = 26;
    p.am_entries = 520;
    p.mlp_macs = 617 * 256 + 256 * 26;
  } else if (application == "ucihar-like") {
    p.input_dim = 561;
    p.n_classes = 6;
    p.am_entries = 180;
    p.mlp_macs = 561 * 128 + 128 * 6;
  } else if (application == "mnist-like") {
    p.input_dim = 784;
    p.n_classes = 10;
    p.am_entries = 250;
    p.mlp_macs = 784 * 256 + 256 * 10;
  } else if (application == "face-like") {
    p.input_dim = 608;
    p.n_classes = 2;
    p.am_entries = 80;
    p.mlp_macs = 608 * 64 + 64 * 2;
  } else if (application == "language-like") {
    p.input_dim = 128;
    p.n_classes = 21;
    p.am_entries = 525;
    p.mlp_macs = 128 * 128 + 128 * 21;
  } else if (application == "omniglot-like") {
    p.input_dim = 400;
    p.n_classes = 5;
    p.am_entries = 25;
    p.hv_dim = 512;
    p.mlp_macs = 400 * 128 + 128 * 5;
    p.writes_per_inference = 0.2;  // support-set rewrites per query (episodic)
  } else {
    XLDS_REQUIRE_MSG(false, "no profile for application '" << application << "'");
  }
  return p;
}

double default_accuracy_oracle(const DesignPoint& p, const AppProfile& profile) {
  (void)profile;
  // Calibrated heuristic: software baselines from the case-study narrative;
  // penalties follow the measured degradations (precision, analog noise,
  // sense margin).  Benches replace this with simulator measurements.
  double acc = 0.0;
  switch (p.algo) {
    case AlgoKind::kMlp: acc = 0.94; break;
    case AlgoKind::kCnn: acc = 0.95; break;
    case AlgoKind::kHdc: acc = 0.93; break;
    case AlgoKind::kMann: acc = 0.91; break;
  }
  const auto& dev = device::traits(p.device);
  const bool in_memory = p.arch == ArchKind::kCamAccelerator ||
                         p.arch == ArchKind::kCrossbarAccelerator ||
                         p.arch == ArchKind::kCamXbarHybrid;
  if (in_memory) {
    const int bits = std::min(dev.max_bits_per_cell, 3);
    if (bits == 2) acc -= 0.015;
    if (bits == 1) acc -= 0.05;
    if (p.arch != ArchKind::kCamAccelerator) acc -= 0.01;  // analog MVM noise
    if (p.device == device::DeviceKind::kMram) acc -= 0.03;  // tiny sense margin
  }
  return acc;
}

Evaluator::Evaluator(AccuracyOracle oracle) : oracle_(std::move(oracle)) {
  XLDS_REQUIRE(oracle_ != nullptr);
}

xbar::MvmCost Evaluator::tiled_mvm_cost(device::DeviceKind dev, double macs) const {
  const xbar::MvmCost tile = tile_costs_.get(dev, [dev] { return compute_tile_cost(dev); });
  const double macs_per_tile = static_cast<double>(kTileRows * kTileLogicalCols);
  const double tile_ops = std::ceil(macs / macs_per_tile);
  xbar::MvmCost cost;
  cost.latency = std::ceil(tile_ops / static_cast<double>(kParallelTiles)) * tile.latency;
  cost.energy = tile_ops * tile.energy;
  return cost;
}

Fom Evaluator::evaluate_digital(const DesignPoint& p, const AppProfile& profile) const {
  const arch::Platform& plat = platform_for(p.arch);
  arch::KernelCost cost;
  switch (p.algo) {
    case AlgoKind::kHdc: {
      arch::HdcWorkload w;
      w.input_dim = profile.input_dim;
      w.hv_dim = profile.hv_dim;
      w.am_entries = profile.am_entries;
      w.elem_bytes = 4;
      cost = p.arch == ArchKind::kTpuGpuHybrid
                 ? arch::hdc_hybrid_inference(arch::tpu(), arch::gpu(), w, profile.batch)
                 : arch::hdc_gpu_inference(plat, w, profile.batch);
      break;
    }
    case AlgoKind::kMlp:
      cost = arch::mlp_gpu_inference(plat, profile.mlp_macs, profile.mlp_macs, profile.batch);
      break;
    case AlgoKind::kCnn:
      cost = arch::mlp_gpu_inference(plat, profile.cnn_macs, profile.cnn_macs / 4,
                                     profile.batch);
      break;
    case AlgoKind::kMann: {
      arch::MannWorkload w;
      w.cnn_macs = profile.cnn_macs;
      w.cnn_param_bytes = profile.cnn_macs / 4;
      w.am_entries = profile.am_entries;
      cost = arch::mann_gpu_inference(plat, w, profile.batch);
      break;
    }
  }
  Fom fom;
  fom.latency = cost.latency / static_cast<double>(profile.batch);
  fom.energy = cost.energy / static_cast<double>(profile.batch);
  fom.area_mm2 = 0.0;
  fom.accuracy = oracle_(p, profile);
  fom.note = "software platform (" + plat.name + ")";
  return fom;
}

Fom Evaluator::evaluate_in_memory(const DesignPoint& p, const AppProfile& profile) const {
  const auto& dev = device::traits(p.device);
  Fom fom;
  fom.accuracy = oracle_(p, profile);

  // CAM stage (search-based algorithms).
  evacam::CamFom cam_fom{};
  const bool needs_cam =
      p.arch == ArchKind::kCamAccelerator || p.arch == ArchKind::kCamXbarHybrid;
  if (needs_cam) {
    const evacam::CamDesignSpec spec = cam_spec_for_point(p, profile);
    cam_fom = cam_foms_.get(spec, [&spec] { return evacam::EvaCam(spec).evaluate(); });
    if (cam_fom.max_ml_columns < 16) {
      fom.feasible = false;
      fom.note = "sense margin limits matchline to " +
                 std::to_string(cam_fom.max_ml_columns) + " columns";
    }
  }

  // Crossbar stage (MVM-based work).
  xbar::MvmCost mvm{};
  double xbar_macs = 0.0;
  switch (p.algo) {
    case AlgoKind::kHdc:
      xbar_macs = static_cast<double>(profile.input_dim * profile.hv_dim);
      break;
    case AlgoKind::kMlp: xbar_macs = static_cast<double>(profile.mlp_macs); break;
    case AlgoKind::kCnn: xbar_macs = static_cast<double>(profile.cnn_macs); break;
    case AlgoKind::kMann:
      xbar_macs = static_cast<double>(profile.cnn_macs) + 64.0 * 256.0;  // CNN + hashing
      break;
  }
  const bool needs_xbar = p.arch != ArchKind::kCamAccelerator;
  if (needs_xbar) mvm = tiled_mvm_cost(p.device, xbar_macs);

  fom.latency = mvm.latency + cam_fom.search_latency;
  fom.energy = mvm.energy + cam_fom.search_energy;

  // Online writes: endurance feasibility and write cost.
  if (profile.writes_per_inference > 0.0) {
    const double lifetime_writes = profile.writes_per_inference * kLifetimeInferences;
    if (lifetime_writes > dev.endurance_cycles) {
      fom.feasible = false;
      fom.note = device::to_string(p.device) + " endurance " +
                 si_format(dev.endurance_cycles, "cycles", 0) + " < " +
                 si_format(lifetime_writes, " lifetime writes", 0);
    }
    fom.latency += profile.writes_per_inference * dev.write_latency;
    fom.energy += profile.writes_per_inference * dev.write_energy * 128.0;
  }

  // Area: CAM macro + crossbar tiles (cells + per-column converters).
  double area = cam_fom.area_m2;
  if (needs_xbar) {
    const double tiles = std::ceil(xbar_macs / static_cast<double>(kTileRows * kTileLogicalCols));
    const double resident_tiles = std::min(tiles, static_cast<double>(kParallelTiles));
    const double f = device::tech_node("40nm").feature_m;
    const double tile_area = static_cast<double>(kTileRows * 2 * kTileLogicalCols) * 4.0 * f * f +
                             8.0 * 50e-12;  // cells + shared ADCs
    area += resident_tiles * tile_area;
  }
  fom.area_mm2 = area / 1e-6;
  if (fom.note.empty())
    fom.note = "in-memory macro (" + device::to_string(p.device) + ")";
  return fom;
}

Fom Evaluator::evaluate(const DesignPoint& p, const AppProfile& profile) const {
  XLDS_REQUIRE(profile.batch >= 1);
  const bool in_memory = p.arch == ArchKind::kCamAccelerator ||
                         p.arch == ArchKind::kCrossbarAccelerator ||
                         p.arch == ArchKind::kCamXbarHybrid;
  return in_memory ? evaluate_in_memory(p, profile) : evaluate_digital(p, profile);
}

std::vector<Fom> Evaluator::evaluate_all(const std::vector<EnumeratedPoint>& points,
                                         const AppProfile& profile) const {
  return parallel_map<Fom>(points.size(), [&](std::size_t i) {
    const EnumeratedPoint& ep = points[i];
    if (ep.culled_because) {
      Fom fom;
      fom.feasible = false;
      fom.note = *ep.culled_because;
      return fom;
    }
    return evaluate(ep.point, profile);
  });
}

}  // namespace xlds::core
