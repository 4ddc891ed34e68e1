// Unit tests for the adaptive DSE subsystem: search space indexing, the
// crash-safe journal, the persistent result cache, the fidelity ladder, the
// drivers, and the headline acceptance properties — budgeted search recovers
// the brute-force Pareto front, a killed run resumed from its journal is
// bit-identical to one that never died, and a warm result cache changes no
// result or journal byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "core/pareto.hpp"
#include "dse/engine.hpp"
#include "dse/jobspec.hpp"
#include "dse/journal.hpp"
#include "dse/result_cache.hpp"
#include "dse/space.hpp"
#include "fault/resilience.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace xlds::dse {
namespace {

namespace fs = std::filesystem;

// Unique per-test scratch path, cleaned up on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& stem)
      : path_((fs::temp_directory_path() /
               ("xlds_dse_" + stem + "_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                  .string()) {
    fs::remove(path_);
  }
  ~TempPath() { fs::remove(path_); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::set<std::string> front_keys(const ExplorationResult& r) {
  std::set<std::string> keys;
  for (const std::size_t i : r.front) keys.insert(r.evaluated[i].point.to_string());
  return keys;
}

// Brute force at the same fidelity the engine searches at: evaluate every
// viable point, dedup, take the front.
ExplorationResult brute_force(const std::string& application, FidelityConfig fidelity = {}) {
  EngineConfig config;
  config.application = application;
  config.strategy = "lhs";
  config.budget = 0;  // one charge per viable point
  config.fidelity = fidelity;
  return explore(config);
}

constexpr const char* kApplications[] = {"isolet-like", "ucihar-like",   "mnist-like",
                                         "face-like",   "language-like", "omniglot-like"};

// Bit-identical, not approximately equal.
bool same_fom(const core::Fom& a, const core::Fom& b) {
  return a.latency == b.latency && a.energy == b.energy && a.area_mm2 == b.area_mm2 &&
         a.accuracy == b.accuracy && a.feasible == b.feasible && a.note == b.note;
}

bool same_foms(const ExplorationResult& a, const ExplorationResult& b) {
  if (a.evaluated.size() != b.evaluated.size()) return false;
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    const core::Fom& fa = a.evaluated[i].fom;
    const core::Fom& fb = b.evaluated[i].fom;
    if (a.evaluated[i].point.to_string() != b.evaluated[i].point.to_string()) return false;
    if (a.tiers[i] != b.tiers[i]) return false;
    if (!same_fom(fa, fb)) return false;
  }
  return true;
}

bool same_results(const ExplorationResult& a, const ExplorationResult& b) {
  return same_foms(a, b) && a.front == b.front && a.ranking == b.ranking;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// ---- search space -----------------------------------------------------------

TEST(SearchSpace, IndexRoundTripAndViableCount) {
  const SearchSpace space;
  EXPECT_EQ(space.size(), 168u);  // 6 devices x 7 archs x 4 algos
  std::size_t viable = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.index_of(space.at(i)), i);
    if (!space.culled(i)) ++viable;
  }
  EXPECT_EQ(space.viable_count(), viable);
  EXPECT_GT(viable, 0u);
  EXPECT_LT(viable, space.size());
}

TEST(SearchSpace, HashSeparatesJobs) {
  const SearchSpace full;
  const SearchSpace other_app({}, "omniglot-like");
  core::SpaceAxes narrow;
  narrow.devices = {device::DeviceKind::kRram};
  const SearchSpace sub(narrow);
  EXPECT_NE(full.hash(), other_app.hash());
  EXPECT_NE(full.hash(), sub.hash());
  EXPECT_EQ(full.hash(), SearchSpace().hash());  // pure function of the job
}

// ---- journal ----------------------------------------------------------------

TEST(Journal, RoundTripsRecords) {
  TempPath path("roundtrip");
  Journal::Record r1{7, 0, {1.0, 2.0, 3.0, 0.5, true, "hello"}};
  Journal::Record r2{11, 2, {4.0, 5.0, 6.0, 0.25, false, ""}};
  {
    Journal j(path.str(), 42);
    EXPECT_FALSE(j.open_info().existed);
    j.append(r1);
    j.append(r2);
  }
  Journal j(path.str(), 42);
  EXPECT_TRUE(j.open_info().existed);
  ASSERT_EQ(j.records().size(), 2u);
  EXPECT_EQ(j.open_info().dropped_bytes, 0u);
  EXPECT_EQ(j.records()[0].key, 7u);
  EXPECT_EQ(j.records()[0].fom.note, "hello");
  EXPECT_EQ(j.records()[1].fidelity, 2u);
  EXPECT_FALSE(j.records()[1].fom.feasible);
  EXPECT_EQ(j.records()[1].fom.accuracy, 0.25);
}

TEST(Journal, TruncatesTornTail) {
  TempPath path("torn");
  {
    Journal j(path.str(), 1);
    j.append({1, 0, {1, 1, 1, 1, true, "first"}});
    j.append({2, 0, {2, 2, 2, 2, true, "second"}});
  }
  const auto full_size = fs::file_size(path.str());
  // Tear the last record mid-body, as a crash during write would.
  fs::resize_file(path.str(), full_size - 10);
  {
    Journal j(path.str(), 1);
    ASSERT_EQ(j.records().size(), 1u);
    EXPECT_EQ(j.records()[0].fom.note, "first");
    EXPECT_GT(j.open_info().dropped_bytes, 0u);
    // Appending after recovery lands where the torn record was.
    j.append({3, 0, {3, 3, 3, 3, true, "third"}});
  }
  Journal j(path.str(), 1);
  ASSERT_EQ(j.records().size(), 2u);
  EXPECT_EQ(j.records()[1].fom.note, "third");
}

TEST(Journal, CorruptChecksumDropsSuffix) {
  TempPath path("corrupt");
  {
    Journal j(path.str(), 9);
    j.append({1, 0, {1, 1, 1, 1, true, "aaaa"}});
    j.append({2, 0, {2, 2, 2, 2, true, "bbbb"}});
  }
  // Flip one byte inside the *first* record's body: everything from that
  // record on is distrusted, including the intact record after it.
  std::fstream f(path.str(), std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(30);
  f.put('\xff');
  f.close();
  Journal j(path.str(), 9);
  EXPECT_EQ(j.records().size(), 0u);
  EXPECT_GT(j.open_info().dropped_bytes, 0u);
}

TEST(Journal, RejectsForeignFiles) {
  TempPath garbage("garbage");
  std::ofstream(garbage.str()) << "this is not a journal, honest";
  EXPECT_THROW(Journal(garbage.str(), 1), PreconditionError);

  TempPath other("otherjob");
  { Journal j(other.str(), 1); }
  EXPECT_THROW(Journal(other.str(), 2), PreconditionError);  // job hash mismatch
}

// ---- result cache -----------------------------------------------------------

core::Fom fom_fixture(double scale, bool feasible = true, const std::string& note = "") {
  core::Fom fom;
  fom.latency = 1.5e-6 * scale;
  fom.energy = 2.25e-7 * scale;
  fom.area_mm2 = 0.125 * scale;
  fom.accuracy = 0.75 + 0.001 * scale;
  fom.feasible = feasible;
  fom.note = note;
  return fom;
}

TEST(ResultCache, RoundTripsAcrossReopen) {
  TempPath path("cache");
  const core::Fom fom = fom_fixture(3.0, true, "note with, comma");
  {
    ResultCache cache(path.str());
    EXPECT_FALSE(cache.stats().existed);
    EXPECT_EQ(cache.find(1, 2, 3), nullptr);  // miss
    cache.insert(1, 2, 3, fom);
    const core::Fom* hit = cache.find(1, 2, 3);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->latency, fom.latency);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
  }
  {
    ResultCache cache(path.str());
    EXPECT_TRUE(cache.stats().existed);
    EXPECT_EQ(cache.stats().loaded, 1u);
    const core::Fom* hit = cache.find(1, 2, 3);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->latency, fom.latency);
    EXPECT_EQ(hit->energy, fom.energy);
    EXPECT_EQ(hit->accuracy, fom.accuracy);
    EXPECT_EQ(hit->note, fom.note);
    // Different tier / point / space: distinct keys, all misses.
    EXPECT_EQ(cache.find(1, 2, 0), nullptr);
    EXPECT_EQ(cache.find(1, 9, 3), nullptr);
    EXPECT_EQ(cache.find(9, 2, 3), nullptr);
  }
  // Both runs closed with lookups -> two session records on disk.
  const ResultCache::InspectInfo info = ResultCache::inspect(path.str());
  EXPECT_EQ(info.results.size(), 1u);
  EXPECT_EQ(info.sessions.size(), 2u);
  EXPECT_EQ(info.sessions[0].hits, 1u);
  EXPECT_EQ(info.sessions[0].misses, 1u);
  EXPECT_EQ(info.dropped_bytes, 0u);
}

TEST(ResultCache, TruncatesTornTailOnOpenAndInspectReportsIt) {
  TempPath path("cache_torn");
  {
    ResultCache cache(path.str());
    cache.insert(1, 1, 1, fom_fixture(1.0));
    cache.insert(1, 2, 1, fom_fixture(2.0));
  }
  // Append half a record's worth of garbage, as a crash mid-append would.
  const std::size_t intact = fs::file_size(path.str());
  {
    std::ofstream out(path.str(), std::ios::binary | std::ios::app);
    out << "torn-rec";
  }
  EXPECT_EQ(ResultCache::inspect(path.str()).dropped_bytes, 8u);
  {
    ResultCache cache(path.str());
    EXPECT_EQ(cache.stats().loaded, 2u);
    EXPECT_EQ(cache.stats().dropped_bytes, 8u);
  }
  EXPECT_EQ(fs::file_size(path.str()), intact);  // truncated back to the good prefix

  // A corrupted byte *inside* an intact record drops it and everything after.
  {
    std::fstream f(path.str(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(intact) - 20);
    f.put('\x7f');
  }
  const ResultCache::InspectInfo info = ResultCache::inspect(path.str());
  EXPECT_LT(info.results.size(), 2u);
  EXPECT_GT(info.dropped_bytes, 0u);
}

TEST(ResultCache, RejectsForeignFiles) {
  TempPath path("cache_foreign");
  {
    std::ofstream out(path.str(), std::ios::binary);
    out << "this is not a cache file at all";
  }
  EXPECT_THROW(ResultCache cache(path.str()), PreconditionError);
  EXPECT_THROW(ResultCache::inspect(path.str()), PreconditionError);
}

TEST(ResultCache, PointHashSeparatesAxesAndApplication) {
  core::DesignPoint a;
  a.device = device::DeviceKind::kRram;
  a.arch = core::ArchKind::kCamAccelerator;
  a.algo = core::AlgoKind::kHdc;
  core::DesignPoint b = a;
  EXPECT_EQ(cache_point_hash(a), cache_point_hash(b));
  b.algo = core::AlgoKind::kMann;
  EXPECT_NE(cache_point_hash(a), cache_point_hash(b));
  b = a;
  b.application = "mnist-like";
  EXPECT_NE(cache_point_hash(a), cache_point_hash(b));
}

// ---- fidelity ladder --------------------------------------------------------

TEST(FidelityLadder, DigitalPointsPassThroughUnchanged) {
  FidelityConfig config;
  config.max_fidelity = Fidelity::kMonteCarlo;
  const FidelityLadder ladder(config, core::profile_for("isolet-like"));
  core::DesignPoint p;
  p.device = device::DeviceKind::kSram;
  p.arch = core::ArchKind::kGpu;
  p.algo = core::AlgoKind::kMlp;
  const core::Fom lo = ladder.evaluate(p, Fidelity::kAnalytic);
  const core::Fom hi = ladder.evaluate(p, Fidelity::kMonteCarlo);
  EXPECT_EQ(lo.latency, hi.latency);
  EXPECT_EQ(lo.accuracy, hi.accuracy);
}

TEST(FidelityLadder, HigherTiersOnlyDiscountInMemoryAccuracy) {
  FidelityConfig config;
  config.max_fidelity = Fidelity::kMonteCarlo;
  const FidelityLadder ladder(config, core::profile_for("isolet-like"));
  core::DesignPoint p;
  p.device = device::DeviceKind::kRram;
  p.arch = core::ArchKind::kCrossbarAccelerator;
  p.algo = core::AlgoKind::kCnn;
  const core::Fom analytic = ladder.evaluate(p, Fidelity::kAnalytic);
  const core::Fom nodal = ladder.evaluate(p, Fidelity::kNodal);
  const core::Fom mc = ladder.evaluate(p, Fidelity::kMonteCarlo);
  ASSERT_TRUE(analytic.feasible);
  EXPECT_LE(nodal.accuracy, analytic.accuracy);
  EXPECT_LE(mc.accuracy, nodal.accuracy);
  EXPECT_EQ(nodal.latency, analytic.latency);  // crossbar rung touches accuracy only
}

TEST(FidelityLadder, DeterministicAcrossInstances) {
  FidelityConfig config;
  config.max_fidelity = Fidelity::kMonteCarlo;
  const FidelityLadder a(config, core::profile_for("isolet-like"));
  const FidelityLadder b(config, core::profile_for("isolet-like"));
  core::DesignPoint p;
  p.device = device::DeviceKind::kFeFet;
  p.arch = core::ArchKind::kCamAccelerator;
  p.algo = core::AlgoKind::kHdc;
  const core::Fom fa = a.evaluate(p, Fidelity::kMonteCarlo);
  const core::Fom fb = b.evaluate(p, Fidelity::kMonteCarlo);
  EXPECT_EQ(fa.accuracy, fb.accuracy);
  EXPECT_EQ(fa.latency, fb.latency);
  EXPECT_EQ(fa.note, fb.note);
}

TEST(FidelityLadder, BatchMatchesPerPointOnEveryField) {
  // evaluate_batch builds the batch's shared artifacts as concurrent sibling
  // tasks; out[i] must still be evaluate(points[i]) byte for byte, note
  // string included, at any pool width.  Every ladder starts cold, so its
  // first (mc) batch builds probe and tiles concurrently.
  FidelityConfig config;
  config.max_fidelity = Fidelity::kMonteCarlo;
  for (const std::size_t threads : {1, 4, 8}) {
    set_parallel_threads(threads);
    for (const char* app : kApplications) {
      const FidelityLadder ladder(config, core::profile_for(app));
      const SearchSpace space({}, app);
      std::vector<core::DesignPoint> points;
      for (std::size_t i = 0; i < space.size(); ++i)
        if (!space.culled(i)) points.push_back(space.at(i));
      for (const Fidelity tier : {Fidelity::kMonteCarlo, Fidelity::kNodal, Fidelity::kAnalytic}) {
        const std::vector<core::Fom> batch = ladder.evaluate_batch(points, tier);
        ASSERT_EQ(batch.size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i)
          EXPECT_TRUE(same_fom(batch[i], ladder.evaluate(points[i], tier)))
              << app << " " << to_string(tier) << " " << points[i].to_string() << " at "
              << threads << " threads: " << batch[i].note;
      }
    }
  }
  set_parallel_threads(0);  // restore default
}

TEST(FidelityLadder, BatchSkipsProbeWhenNodalRungKillsThePoint) {
  // Variation margins make this CAM HDC point infeasible at the nodal rung,
  // so the per-point Monte-Carlo rung never reads the resilience probe.  The
  // batch must not build it either, although the point is analytically
  // feasible.
  FidelityConfig config;
  config.max_fidelity = Fidelity::kMonteCarlo;
  const FidelityLadder ladder(config, core::profile_for("isolet-like"));
  core::DesignPoint p;
  p.device = device::DeviceKind::kFeFet;
  p.arch = core::ArchKind::kCamAccelerator;
  p.algo = core::AlgoKind::kHdc;
  ASSERT_TRUE(ladder.evaluate(p, Fidelity::kAnalytic).feasible);
  fault::clear_resilience_caches();
  const core::Fom mc = ladder.evaluate_batch({p, p}, Fidelity::kMonteCarlo)[0];
  EXPECT_FALSE(mc.feasible);
  EXPECT_EQ(fault::resilience_cache_stats().lookups, 0u);
}

TEST(FidelityLadder, RejectsTiersAboveMax) {
  const FidelityLadder ladder({}, core::profile_for("isolet-like"));  // max = analytic
  EXPECT_THROW(ladder.evaluate(core::DesignPoint{}, Fidelity::kNodal),
               PreconditionError);
}

// ---- acceptance: budgeted search recovers the brute-force front -------------

TEST(Acceptance, Nsga2At20PercentBudgetRecoversFront) {
  const ExplorationResult brute = brute_force("isolet-like");
  const std::set<std::string> want = front_keys(brute);
  ASSERT_GE(want.size(), 3u);

  EngineConfig config;
  config.strategy = "nsga2";
  config.budget = SearchSpace().size() / 5;  // 20% of the 168-point grid
  config.seed = 1;
  const ExplorationResult got = explore(config);
  EXPECT_LE(got.stats.charges, config.budget);

  const std::set<std::string> found = front_keys(got);
  std::size_t recovered = 0;
  for (const std::string& k : want) recovered += found.count(k);
  // >= 90% of the brute-force Pareto front at <= 20% of its evaluator calls.
  EXPECT_GE(10 * recovered, 9 * want.size())
      << "recovered " << recovered << "/" << want.size() << " front points";
}

// Successive halving's contract is different from NSGA-II's: it buys
// fidelity-ladder triage (cheap rungs screen cohorts for the expensive ones;
// see Engine.HalvingClimbsEveryRung), not Pareto closure.  On a single-rung
// ladder it reduces to a stratified cohort, so the bar here is budget
// discipline plus majority front recovery — the >=90%-at-20%-budget
// criterion is carried by the NSGA-II test above.
TEST(Acceptance, HalvingAt20PercentBudgetKeepsMajorityFront) {
  const ExplorationResult brute = brute_force("isolet-like");
  const std::set<std::string> want = front_keys(brute);

  EngineConfig config;
  config.strategy = "halving";
  config.budget = SearchSpace().size() / 5;
  config.seed = 1;
  const ExplorationResult got = explore(config);
  EXPECT_LE(got.stats.charges, config.budget);

  const std::set<std::string> found = front_keys(got);
  std::size_t recovered = 0;
  for (const std::string& k : want) recovered += found.count(k);
  EXPECT_GE(2 * recovered, want.size())
      << "recovered " << recovered << "/" << want.size() << " front points";
}

// ---- acceptance: crash + resume is bit-identical ----------------------------

TEST(Acceptance, ResumeAfterCrashIsBitIdentical) {
  EngineConfig config;
  config.strategy = "nsga2";
  config.budget = 33;
  config.seed = 5;

  // Reference: uninterrupted run, no journal.
  const ExplorationResult reference = explore(config);
  ASSERT_GT(reference.stats.computed, 12u);

  // Crash after 12 durable appends, then resume from the journal.
  TempPath journal("resume");
  config.journal_path = journal.str();
  config.abort_after_computed = 12;
  EXPECT_THROW(explore(config), AbortInjected);

  config.abort_after_computed = 0;
  const ExplorationResult resumed = explore(config);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.stats.journal_replayed, 12u);
  EXPECT_EQ(resumed.stats.journal_hits, 12u);
  EXPECT_EQ(resumed.stats.computed, reference.stats.computed - 12u);

  EXPECT_TRUE(same_foms(reference, resumed));
  EXPECT_EQ(reference.front, resumed.front);
  EXPECT_EQ(reference.ranking, resumed.ranking);
  EXPECT_EQ(front_keys(reference), front_keys(resumed));

  // The serialised result documents (without stats) match byte for byte.
  EXPECT_EQ(result_to_json(reference, false).dump(2),
            result_to_json(resumed, false).dump(2));
}

TEST(Acceptance, ResumeSurvivesTornJournalTail) {
  EngineConfig config;
  config.strategy = "lhs";
  config.budget = 20;
  config.seed = 2;
  const ExplorationResult reference = explore(config);

  TempPath journal("torn_resume");
  config.journal_path = journal.str();
  config.abort_after_computed = 10;
  EXPECT_THROW(explore(config), AbortInjected);
  // Tear the journal's last record, as a crash mid-append would.
  fs::resize_file(journal.str(), fs::file_size(journal.str()) - 7);

  config.abort_after_computed = 0;
  const ExplorationResult resumed = explore(config);
  EXPECT_EQ(resumed.stats.journal_replayed, 9u);  // last record lost to the tear
  EXPECT_TRUE(same_foms(reference, resumed));
  EXPECT_EQ(reference.front, resumed.front);
}

// ---- acceptance: the result cache is speed-only -----------------------------

EngineConfig cached_job_config(std::uint64_t seed) {
  EngineConfig config;
  config.application = "isolet-like";
  config.strategy = "nsga2";
  config.budget = 40;
  config.seed = seed;
  config.fidelity.max_fidelity = Fidelity::kNodal;
  return config;
}

TEST(Acceptance, WarmCacheServesEverythingAndChangesNoBytes) {
  TempPath cache("warm");
  TempPath j_cold("cold");
  TempPath j_warm("warmj");

  EngineConfig config = cached_job_config(17);
  config.cache_path = cache.str();
  config.journal_path = j_cold.str();
  const ExplorationResult cold = explore(config);
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_EQ(cold.stats.cache_appends, cold.stats.computed);
  EXPECT_GT(cold.stats.cache_appends, 0u);

  config.journal_path = j_warm.str();
  const ExplorationResult warm = explore(config);
  EXPECT_EQ(warm.stats.computed, 0u);
  EXPECT_EQ(warm.stats.cache_hits, cold.stats.computed);
  EXPECT_TRUE(same_results(cold, warm));
  EXPECT_EQ(read_bytes(j_cold.str()), read_bytes(j_warm.str()));
}

TEST(Acceptance, CacheIsSharedAcrossOverlappingJobSpaces) {
  TempPath cache("overlap");

  // Full-grid job populates the cache...
  EngineConfig config = cached_job_config(19);
  config.cache_path = cache.str();
  const ExplorationResult full = explore(config);
  EXPECT_GT(full.stats.cache_appends, 0u);

  // ...and a job restricted to a sub-space reuses the overlapping entries:
  // same ladder + application, different axes, same cache keys.
  EngineConfig restricted = cached_job_config(23);
  restricted.cache_path = cache.str();
  restricted.budget = 10;
  restricted.axes.archs = {core::ArchKind::kCamAccelerator, core::ArchKind::kGpu,
                           core::ArchKind::kCrossbarAccelerator};
  const ExplorationResult sub = explore(restricted);
  EXPECT_GT(sub.stats.cache_hits, 0u);
}

TEST(Acceptance, CacheComposesWithJournalResume) {
  TempPath cache("resume_cache");
  TempPath journal("resume_cached");

  // Crash a cached run part-way via the abort hook...
  EngineConfig config = cached_job_config(29);
  config.cache_path = cache.str();
  config.journal_path = journal.str();
  config.abort_after_computed = 7;
  EXPECT_THROW(explore(config), AbortInjected);

  // ...resume it against the same cache, and compare against an
  // uninterrupted cache-less run.
  config.abort_after_computed = 0;
  const ExplorationResult resumed = explore(config);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.stats.journal_hits, 7u);
  EXPECT_EQ(resumed.stats.cache_hits, 0u);  // the crashed run's appends are journal hits
  EXPECT_TRUE(same_results(explore(cached_job_config(29)), resumed));
}

// ---- determinism across thread counts ---------------------------------------

TEST(Engine, ThreadCountDoesNotChangeResults) {
  // Up to the MC tier, 1 vs 8 lanes: the results — and every journal byte —
  // must be identical, because placement decides only *where* a chunk runs
  // and the journal appends in charge order either way.
  const auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  EngineConfig config;
  config.strategy = "nsga2";
  config.budget = 60;
  config.seed = 7;
  config.fidelity.max_fidelity = Fidelity::kMonteCarlo;

  TempPath j_serial("threads_1"), j_wide("threads_8");
  set_parallel_threads(1);
  config.journal_path = j_serial.str();
  const ExplorationResult serial = explore(config);
  set_parallel_threads(8);
  config.journal_path = j_wide.str();
  const ExplorationResult wide = explore(config);
  set_parallel_threads(0);  // restore default

  EXPECT_TRUE(same_foms(serial, wide));
  EXPECT_EQ(serial.front, wide.front);
  EXPECT_EQ(serial.ranking, wide.ranking);
  const std::string bytes_serial = read_bytes(j_serial.str());
  ASSERT_FALSE(bytes_serial.empty());
  EXPECT_EQ(bytes_serial, read_bytes(j_wide.str()));
}

TEST(Engine, NodalFactorizationsPerJobDoNotDependOnThreadCount) {
  // The nodal rung's IR-error memo is single-flight and owned by the job's
  // ladder: a job factorizes each device's probe tile once, however many
  // lanes race for it, with no cache to clear in between.  And a
  // ladder batch tiles only the devices of its analytically feasible
  // crossbar points, so the per-application counts (recorded on the
  // per-point ladder) stay pinned — tiling infeasible points would raise them.
  const std::uint64_t expected[] = {3, 3, 3, 3, 3, 2};  // kApplications order
  EngineConfig config;
  config.strategy = "nsga2";
  config.budget = 60;
  config.seed = 7;
  config.fidelity.max_fidelity = Fidelity::kMonteCarlo;
  for (const std::size_t threads : {1, 4}) {
    set_parallel_threads(threads);
    for (std::size_t a = 0; a < std::size(kApplications); ++a) {
      config.application = kApplications[a];
      const std::uint64_t before = core::Profiler::nodal().factorizations;
      (void)explore(config);
      EXPECT_EQ(core::Profiler::nodal().factorizations - before, expected[a])
          << kApplications[a] << " at " << threads << " threads";
    }
  }
  set_parallel_threads(0);  // restore default
}

TEST(Engine, CacheServedRerunDoesNoPhysics) {
  // Artifacts are built for cache misses only: a rerun that the result
  // cache serves in full must not factorize a tile (its ladder starts cold)
  // or touch a resilience context, even with the context memos dropped.
  TempPath cache("warm_cache"), cold_journal("cold_journal"), warm_journal("warm_journal");
  EngineConfig config;
  config.strategy = "nsga2";
  config.budget = 60;
  config.seed = 1;
  config.fidelity.max_fidelity = Fidelity::kMonteCarlo;
  config.cache_path = cache.str();
  config.journal_path = cold_journal.str();
  const ExplorationResult cold = explore(config);
  ASSERT_GT(cold.stats.computed, 0u);

  fault::clear_resilience_caches();
  config.journal_path = warm_journal.str();
  const std::uint64_t before = core::Profiler::nodal().factorizations;
  const ExplorationResult warm = explore(config);
  EXPECT_EQ(warm.stats.computed, 0u);
  EXPECT_EQ(warm.stats.cache_hits, cold.stats.computed);
  EXPECT_EQ(core::Profiler::nodal().factorizations - before, 0u);
  EXPECT_EQ(fault::resilience_cache_stats().lookups, 0u);
  EXPECT_TRUE(same_foms(cold, warm));
}

// ---- engine semantics -------------------------------------------------------

TEST(Engine, BudgetZeroMeansViableSpaceAndSaturates) {
  for (const char* strategy : {"random", "lhs"}) {
    EngineConfig config;
    config.strategy = strategy;
    config.budget = 0;
    const ExplorationResult r = explore(config);
    EXPECT_EQ(r.stats.charges, SearchSpace().viable_count()) << strategy;
    EXPECT_EQ(r.evaluated.size(), SearchSpace().viable_count()) << strategy;
    EXPECT_EQ(r.stats.culled_requests, 0u) << strategy;  // drivers never pay for culls
  }
}

TEST(Engine, EvaluatedPointsAreDistinct) {
  EngineConfig config;
  config.strategy = "nsga2";
  config.budget = 40;
  const ExplorationResult r = explore(config);
  const std::vector<std::size_t> dedup = core::dedup_points(r.evaluated);
  EXPECT_EQ(dedup.size(), r.evaluated.size());  // engine dedups by construction
}

TEST(Engine, HalvingClimbsEveryRung) {
  EngineConfig config;
  config.strategy = "halving";
  config.budget = 60;
  config.fidelity.max_fidelity = Fidelity::kMonteCarlo;
  const ExplorationResult r = explore(config);
  // Surrogate off: tier 0 stays untouched, every physics rung gets charges.
  EXPECT_EQ(r.stats.charges_by_tier[0], 0u);
  EXPECT_GT(r.stats.charges_by_tier[1], 0u);
  EXPECT_GT(r.stats.charges_by_tier[2], 0u);
  EXPECT_GT(r.stats.charges_by_tier[3], 0u);
  // Wider cohorts at cheaper rungs.
  EXPECT_GE(r.stats.charges_by_tier[1], r.stats.charges_by_tier[2]);
  EXPECT_GE(r.stats.charges_by_tier[2], r.stats.charges_by_tier[3]);
}

TEST(Engine, RestrictedAxesStayInsideTheSubspace) {
  EngineConfig config;
  config.strategy = "random";
  config.budget = 10;
  config.axes.devices = {device::DeviceKind::kRram, device::DeviceKind::kFeFet};
  config.axes.algos = {core::AlgoKind::kHdc};
  const ExplorationResult r = explore(config);
  EXPECT_GT(r.evaluated.size(), 0u);
  for (const core::ScoredPoint& sp : r.evaluated) {
    EXPECT_TRUE(sp.point.device == device::DeviceKind::kRram ||
                sp.point.device == device::DeviceKind::kFeFet);
    EXPECT_EQ(sp.point.algo, core::AlgoKind::kHdc);
  }
}

// ---- job specs --------------------------------------------------------------

TEST(JobSpec, ParsesFullDocument) {
  const EngineConfig config = config_from_spec_text(R"({
    "application": "isolet-like",
    "strategy": "halving",
    "budget": 33,
    "seed": 7,
    "space": {"devices": ["RRAM", "FeFET"], "algos": ["HDC", "MANN"]},
    "fidelity": {"max": "mc", "mc_fault_rate": 0.05},
    "driver": {"population": 12, "eta": 2.0},
    "weights": {"accuracy": 10.0},
    "journal": "runs/a.xjl"
  })");
  EXPECT_EQ(config.strategy, "halving");
  EXPECT_EQ(config.budget, 33u);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.axes.devices.size(), 2u);
  EXPECT_TRUE(config.axes.archs.empty());  // absent axis = every value
  EXPECT_EQ(config.fidelity.max_fidelity, Fidelity::kMonteCarlo);
  EXPECT_EQ(config.fidelity.mc_fault_rate, 0.05);
  EXPECT_EQ(config.driver.population, 12u);
  EXPECT_EQ(config.driver.halving_eta, 2.0);
  EXPECT_EQ(config.weights.accuracy, 10.0);
  EXPECT_EQ(config.journal_path, "runs/a.xjl");
}

TEST(JobSpec, RejectsTyposAndBadNames) {
  EXPECT_THROW(config_from_spec_text(R"({"bugdet": 10})"), PreconditionError);
  EXPECT_THROW(config_from_spec_text(R"({"space": {"devices": ["ReRAM"]}})"),
               PreconditionError);
  EXPECT_THROW(config_from_spec_text(R"({"fidelity": {"max": "spice"}})"),
               PreconditionError);
  EXPECT_THROW(config_from_spec_text(R"({"budget": -3})"), PreconditionError);
  // The removed multi-process knob is an unknown key, not a silent no-op.
  EXPECT_THROW(config_from_spec_text(R"({"shards": 4})"), PreconditionError);
}

TEST(JobSpec, ResultSerialisationRoundTrips) {
  EngineConfig config;
  config.strategy = "lhs";
  config.budget = 15;
  const ExplorationResult r = explore(config);

  const util::Json doc = util::Json::parse(result_to_json(r).dump(2));
  EXPECT_EQ(doc.at("strategy").as_string(), "lhs");
  EXPECT_EQ(doc.at("pareto_front").size(), r.front.size());
  EXPECT_EQ(doc.at("triage_ranking").size(), r.ranking.size());
  EXPECT_EQ(static_cast<std::size_t>(doc.at("stats").at("charges").as_number()),
            r.stats.charges);

  const std::string csv = result_to_csv(r);
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            r.evaluated.size() + 1);  // header + one row per point
}

TEST(JobSpec, UnknownStrategyRejected) {
  EngineConfig config;
  config.strategy = "simulated-annealing";
  EXPECT_THROW(explore(config), PreconditionError);
}

}  // namespace
}  // namespace xlds::dse
