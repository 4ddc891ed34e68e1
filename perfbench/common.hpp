// Shared plumbing of xlds_perfbench: options, the raw result every
// workload fills in, and a minimal JSON writer for it.  The binary only
// measures and records; perfbench/run.py turns the raw result into metrics
// and checks the outputs against the stored references.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  /// Workload instance seeds in run order; rounds cycle through them.
  std::vector<std::uint64_t> instances;
  /// Rounds of the timed phase: a fixed amount of work, so every commit
  /// makes the same unit calls and reports the same percentiles.
  std::size_t rounds = 1;
  bool trace = false;
  std::string out;        ///< raw result JSON
  std::string trace_out;  ///< Chrome trace JSON (traced runs)
  std::string workdir;    ///< scratch files (journals, caches)

  /// Traced runs make one traced pass per three rounds: a pass runs its
  /// work untraced, then traced (serve_drift: the real loop, then its
  /// replay untraced and traced).
  std::size_t traced_passes() const { return rounds >= 3 ? rounds / 3 : 1; }
};

/// Named values in insertion order, each already JSON-encoded.
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string json_num(double v);
std::string json_str(const std::string& s);
std::string json_obj(const Fields& fields);
std::string json_list(const std::vector<double>& values);

/// One checked unit of work: a workload instance run, or one DSE job.  Its
/// outputs include the counts run.py derives the unit's ops from.
struct Checked {
  std::string key;  ///< reference key: "<instance>" or "<instance>/<job>"
  Fields output;    ///< modelled outputs compared with the reference
};

/// What one run of a workload measured.
struct RawResult {
  std::vector<double> setup_s;   ///< one per set-up
  std::vector<double> call_s;    ///< one per unit call
  std::vector<double> round_s;   ///< host seconds of each timed round
  /// Every unit run; in an untraced run exactly the timed phase's units.
  std::vector<Checked> checked;
  /// Per-layer values measured outside spans: library counters (through
  /// counters.hpp) and benchmark-side counts.
  std::map<std::string, double> layer;
  /// Traced runs: traced passes made (per-layer values are per pass) and
  /// host seconds of the same work untraced and traced.
  std::size_t passes = 0;
  double untraced_s = 0.0;
  double traced_s = 0.0;
};

/// Peak resident set of this process and of its reaped children, MiB.
double peak_rss_mb();

void write_raw(const std::string& path, const Options& opt, const RawResult& raw);

/// Run the named workload; throws on unknown names or failed calls.
RawResult run_serve_drift(const Options& opt, Tracer& tracer);
RawResult run_hdc_fit(const Options& opt, Tracer& tracer);
RawResult run_dse_sweep(const Options& opt, Tracer& tracer);

}  // namespace perfbench
