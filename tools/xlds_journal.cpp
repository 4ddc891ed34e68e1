// xlds-journal: inspect and export crash-safe DSE journals.
//
//   xlds-journal --file run.xjl                 # integrity + per-tier summary
//   xlds-journal --file run.xjl --csv out.csv   # (point, tier, FOM) dump
//   xlds-journal --file run.xjl --json out.json # same, as a JSON document
//   xlds-journal cache --file results.xrc       # persistent result cache:
//                                               #   records, tiers, job spaces,
//                                               #   per-session hit rates
//   xlds-journal cache --file results.xrc --csv out.csv
//
// The journal is the surrogate model's training set — every (point, tier,
// FOM) the engine ever paid for — so being able to audit it matters twice:
// once for trust (is the file intact? which job wrote it? how much of a torn
// tail would a resume drop?) and once for analysis (dump the history a forest
// was fitted on).  The inspection is strictly read-only: unlike opening a
// journal for resume, it never truncates a torn tail or upgrades a legacy
// file, so it is safe to point at a journal another run is appending to.
#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include <map>
#include <set>

#include "dse/fidelity.hpp"
#include "dse/journal.hpp"
#include "dse/result_cache.hpp"
#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

std::string format_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string format_hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  XLDS_REQUIRE_MSG(out.is_open(), "cannot write '" << path << "'");
  out << contents;
  XLDS_REQUIRE_MSG(out.good(), "write to '" << path << "' failed");
}

/// The `cache` subcommand: read-only inspection of a persistent cross-run
/// result cache (dse::ResultCache) — record counts by tier, the distinct
/// job spaces sharing the file, and the hit-rate history its session
/// records accumulated.  Like the journal inspection, never truncates.
int run_cache_subcommand(int argc, char** argv) {
  using namespace xlds;
  util::ArgParse args("xlds-journal cache",
                      "Inspect and export persistent cross-run result caches");
  args.add_option("file", "result cache path (required)");
  args.add_option("csv", "dump result records as CSV to this path");
  args.add_flag("quiet", "suppress the summary (dumps only)");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;

  try {
    XLDS_REQUIRE_MSG(args.provided("file"), "--file is required (see --help)");
    const std::string path = args.str("file");
    const dse::ResultCache::InspectInfo info = dse::ResultCache::inspect(path);

    std::array<std::size_t, dse::kFidelityTiers> by_tier{};
    std::set<std::uint64_t> spaces;
    std::size_t feasible = 0;
    for (const dse::ResultCache::ResultRecord& r : info.results) {
      XLDS_REQUIRE_MSG(r.tier < dse::kFidelityTiers,
                       "record carries unknown fidelity tier " << r.tier);
      ++by_tier[r.tier];
      spaces.insert(r.space_hash);
      if (r.fom.feasible) ++feasible;
    }

    if (!args.flag("quiet")) {
      std::cout << "cache:    " << path << "\n"
                << "version:  " << info.version << "\n"
                << "records:  " << info.results.size() << " intact (" << feasible
                << " feasible) across " << spaces.size() << " job space"
                << (spaces.size() == 1 ? "" : "s") << "\n";
      for (std::size_t t = 0; t < dse::kFidelityTiers; ++t)
        std::cout << "  " << dse::to_string(static_cast<dse::Fidelity>(t)) << ": "
                  << by_tier[t] << "\n";
      std::cout << "sessions: " << info.sessions.size() << "\n";
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      for (const dse::ResultCache::SessionRecord& s : info.sessions) {
        hits += s.hits;
        misses += s.misses;
      }
      if (hits + misses > 0) {
        char rate[16];
        std::snprintf(rate, sizeof rate, "%.1f%%",
                      100.0 * static_cast<double>(hits) / static_cast<double>(hits + misses));
        std::cout << "hit rate: " << rate << " lifetime (" << hits << " hits / "
                  << misses << " misses)\n";
      }
      if (info.dropped_bytes > 0)
        std::cout << "torn tail: " << info.dropped_bytes
                  << " bytes (the next open truncates these)\n";
      else
        std::cout << "torn tail: none\n";
    }

    if (args.provided("csv")) {
      std::string csv = "space_hash,point_hash,tier,feasible,latency_s,energy_j,area_mm2,accuracy\n";
      for (const dse::ResultCache::ResultRecord& r : info.results)
        csv += format_hex64(r.space_hash) + ',' + format_hex64(r.point_hash) + ',' +
               dse::to_string(static_cast<dse::Fidelity>(r.tier)) + ',' +
               (r.fom.feasible ? "1," : "0,") + format_g(r.fom.latency) + ',' +
               format_g(r.fom.energy) + ',' + format_g(r.fom.area_mm2) + ',' +
               format_g(r.fom.accuracy) + '\n';
      write_file(args.str("csv"), csv);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "xlds-journal: error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xlds;
  using xlds::util::ArgParse;
  if (argc > 1 && std::string(argv[1]) == "cache") {
    argv[1] = argv[0];  // shift: the subcommand parses its own flags
    return run_cache_subcommand(argc - 1, argv + 1);
  }
  ArgParse args("xlds-journal", "Inspect and export crash-safe DSE result journals");
  args.add_option("file", "journal path (required)");
  args.add_option("csv", "dump records as CSV to this path");
  args.add_option("json", "dump records as JSON to this path");
  args.add_flag("quiet", "suppress the summary (dumps only)");

  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;

  try {
    XLDS_REQUIRE_MSG(args.provided("file"), "--file is required (see --help)");
    const std::string path = args.str("file");
    const dse::Journal::InspectInfo info = dse::Journal::inspect(path);

    std::array<std::size_t, dse::kFidelityTiers> by_tier{};
    std::size_t feasible = 0;
    for (const dse::Journal::Record& r : info.records) {
      XLDS_REQUIRE_MSG(r.fidelity < dse::kFidelityTiers,
                       "record carries unknown fidelity tier " << r.fidelity);
      ++by_tier[r.fidelity];
      if (r.fom.feasible) ++feasible;
    }

    if (!args.flag("quiet")) {
      std::cout << "journal:  " << path << "\n"
                << "version:  " << info.version
                << (info.version == 1 ? " (legacy 3-tier; upgraded on next resume)" : "")
                << "\n"
                << "job hash: " << format_hex64(info.job_hash) << "\n"
                << "records:  " << info.records.size() << " intact (" << feasible
                << " feasible)\n";
      for (std::size_t t = 0; t < dse::kFidelityTiers; ++t)
        std::cout << "  " << dse::to_string(static_cast<dse::Fidelity>(t)) << ": "
                  << by_tier[t] << "\n";
      if (info.dropped_bytes > 0)
        std::cout << "torn tail: " << info.dropped_bytes
                  << " bytes (a resume would truncate these)\n";
      else
        std::cout << "torn tail: none\n";
    }

    if (args.provided("csv")) {
      std::string csv =
          "key,tier,feasible,latency_s,energy_j,area_mm2,accuracy,uncertainty,note\n";
      for (const dse::Journal::Record& r : info.records) {
        std::string note = r.fom.note;
        for (char& c : note)
          if (c == ',' || c == '\n') c = ';';
        csv += std::to_string(r.key) + ',' +
               dse::to_string(static_cast<dse::Fidelity>(r.fidelity)) + ',' +
               (r.fom.feasible ? "1," : "0,") + format_g(r.fom.latency) + ',' +
               format_g(r.fom.energy) + ',' + format_g(r.fom.area_mm2) + ',' +
               format_g(r.fom.accuracy) + ',' + format_g(r.uncertainty) + ',' + note + '\n';
      }
      write_file(args.str("csv"), csv);
    }

    if (args.provided("json")) {
      util::Json doc = util::Json::object();
      doc.set("version", static_cast<std::size_t>(info.version));
      doc.set("job_hash", format_hex64(info.job_hash));
      doc.set("dropped_bytes", info.dropped_bytes);
      util::Json records = util::Json::array();
      for (const dse::Journal::Record& r : info.records) {
        util::Json entry = util::Json::object();
        entry.set("key", static_cast<std::size_t>(r.key));
        entry.set("tier", dse::to_string(static_cast<dse::Fidelity>(r.fidelity)));
        entry.set("feasible", r.fom.feasible);
        entry.set("latency_s", r.fom.latency);
        entry.set("energy_j", r.fom.energy);
        entry.set("area_mm2", r.fom.area_mm2);
        entry.set("accuracy", r.fom.accuracy);
        entry.set("uncertainty", r.uncertainty);
        if (!r.fom.note.empty()) entry.set("note", r.fom.note);
        records.push_back(std::move(entry));
      }
      doc.set("records", std::move(records));
      write_file(args.str("json"), doc.dump(2) + "\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "xlds-journal: error: " << e.what() << "\n";
    return 1;
  }
}
