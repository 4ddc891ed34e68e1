// Fig. 3E — associative search as a fraction of end-to-end HDC runtime.
//
// Paper claim: for several datasets, search operations represent a
// substantial portion of end-to-end compute time, so accelerating search with
// technology-enabled AMs has application-level impact.
//
// Two views: (a) the analytical GPU platform model's search fraction, and
// (b) a measured wall-clock profile of this library's own software HDC
// implementation (encode vs per-sample associative search).
#include <chrono>
#include <iostream>

#include "arch/hdc_mapping.hpp"
#include "core/evaluate.hpp"
#include "hdc/encoder.hpp"
#include "util/table.hpp"
#include "workload/dataset.hpp"

using namespace xlds;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
  print_banner(std::cout, "Fig. 3E — runtime share of associative search",
               "paper: search is a substantial, dataset-dependent share of "
               "end-to-end HDC time");

  constexpr std::size_t kHvDim = 2048;
  Table table({"dataset", "input dim", "AM entries", "model: search share (GPU, b=1)",
               "measured: search share (this impl)"});

  for (const std::string& name : workload::named_dataset_presets()) {
    const core::AppProfile profile = core::profile_for(name);

    arch::HdcWorkload w;
    w.input_dim = profile.input_dim;
    w.hv_dim = kHvDim;
    w.am_entries = profile.am_entries;
    const double model_share = arch::gpu_search_fraction(arch::gpu(), w, 1);

    // Measured: encode the test set, then search per-sample prototypes.
    const workload::Dataset ds = workload::make_named_dataset(name, 11);
    Rng rng(12);
    hdc::HdcEncoder encoder(ds.dim, kHvDim, rng);
    hdc::ElementQuantiser quant(4, 2.0);

    std::vector<std::vector<int>> am;
    am.reserve(ds.train_x.size());
    for (const auto& y : encoder.encode_batch(ds.train_x)) am.push_back(quant.digits(y));

    // The test split is encoded in one batch (as HdcModel does); search stays
    // per sample.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::vector<int>> queries;
    queries.reserve(ds.test_x.size());
    for (const auto& y : encoder.encode_batch(ds.test_x)) queries.push_back(quant.digits(y));
    const double encode_time = seconds_since(t0);

    double search_time = 0.0;
    volatile double sink = 0.0;
    for (const std::vector<int>& q : queries) {
      t0 = std::chrono::steady_clock::now();
      double best = 1e300;
      for (const auto& entry : am) {
        double d = 0.0;
        for (std::size_t i = 0; i < q.size(); ++i) {
          const double delta = q[i] - entry[i];
          d += delta * delta;
        }
        best = std::min(best, d);
      }
      sink = sink + best;
      search_time += seconds_since(t0);
    }
    const double measured_share = search_time / (encode_time + search_time);

    table.add_row({name, std::to_string(profile.input_dim), std::to_string(profile.am_entries),
                   Table::num(100.0 * model_share, 1) + " %",
                   Table::num(100.0 * measured_share, 1) + " %"});
  }

  std::cout << table;
  std::cout << "\nExpected shape: search share is large (tens of percent) and varies by\n"
               "dataset — highest where the AM holds many entries relative to input dim\n"
               "(e.g. language-like), lower for wide-input datasets.\n";
  return 0;
}
