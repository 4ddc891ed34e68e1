// dse_sweep: design-space exploration jobs.
//
// One instance is six dse::explore jobs (NSGA-II, one per application
// profile, physics up to the Monte-Carlo tier), each with its own journal and
// all sharing one persistent result-cache file, exactly as six xlds-dse job
// specs would run them.  The cold phase is timed: physics computed, journals
// and cache written.  A warm phase (same jobs, fresh journals, every
// evaluation a cache read) must then give the same result bytes; the traced
// run reports its time.
//
// A fresh xlds-dse process starts with empty in-process memo caches, so each
// job runs in a forked child of a process that never explores itself.
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "counters.hpp"
#include "dse/engine.hpp"
#include "dse/jobspec.hpp"

namespace perfbench {

namespace {

using namespace xlds;
namespace fs = std::filesystem;

constexpr std::array<const char*, 6> kApplications = {"isolet-like",   "ucihar-like",
                                                      "mnist-like",    "face-like",
                                                      "language-like", "omniglot-like"};
constexpr std::size_t kBudget = 60;

std::string job_spec(const std::string& app, std::uint64_t seed, const std::string& journal,
                     const std::string& cache) {
  std::ostringstream s;
  s << "{\"application\": " << json_str(app) << ", \"strategy\": \"nsga2\", \"budget\": "
    << kBudget << ", \"seed\": " << seed << ", \"fidelity\": {\"max\": \"mc\"}, \"journal\": "
    << json_str(journal) << ", \"cache\": " << json_str(cache) << "}";
  return s.str();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct JobOutcome {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string digest;  ///< "<fnv1a hex>:<length>" of the resume-comparable result JSON
  Counters counters;   ///< exploration stats plus library counter deltas
};

JobOutcome explore_here(const dse::EngineConfig& config) {
  JobOutcome out;
  const Counters before = read_profiler();
  out.start_ns = now_ns();
  const dse::ExplorationResult result = dse::explore(config);
  out.end_ns = now_ns();
  out.counters = counter_delta(read_profiler(), before);
  accumulate(out.counters, exploration_counters(result.stats));
  const std::string bytes = dse::result_to_json(result, /*include_stats=*/false).dump(2);
  std::ostringstream d;
  d << std::hex << fnv1a(bytes) << std::dec << ":" << bytes.size();
  out.digest = d.str();
  return out;
}

void write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// Run one job in a forked child, which starts with this process's (empty)
/// memo caches, and collect its outcome over a pipe.
JobOutcome explore_in_child(const dse::EngineConfig& config) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::ostringstream msg;
    int code = 0;
    try {
      const JobOutcome o = explore_here(config);
      msg << "start " << o.start_ns << "\nend " << o.end_ns << "\ndigest " << o.digest << "\n";
      msg.precision(17);
      for (const auto& [name, value] : o.counters) msg << name << " " << value << "\n";
    } catch (const std::exception& e) {
      msg << "error " << e.what() << "\n";
      code = 1;
    }
    write_all(fds[1], msg.str());
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  JobOutcome out;
  std::istringstream in(text);
  std::string key;
  std::string error;
  while (in >> key) {
    if (key == "start") in >> out.start_ns;
    else if (key == "end") in >> out.end_ns;
    else if (key == "digest") in >> out.digest;
    else if (key == "error") std::getline(in, error);
    else in >> out.counters[key];
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.digest.empty())
    throw std::runtime_error("dse job failed in child:" + error);
  return out;
}

/// The six jobs of one instance, set up in `dir`: spec documents parsed into
/// engine configs, cold and warm journals apart, one shared cache.
struct Instance {
  std::uint64_t seed = 0;
  std::string dir;
  std::vector<dse::EngineConfig> cold;
  std::vector<dse::EngineConfig> warm;
  double setup_s = 0.0;
};

Instance set_up(std::uint64_t seed, const std::string& dir, Tracer& tracer) {
  Span s(tracer, "dse.setup");
  const std::int64_t t0 = now_ns();
  Instance inst;
  inst.seed = seed;
  inst.dir = dir;
  fs::create_directories(inst.dir);
  const std::string cache = inst.dir + "/results.xrc";
  for (const char* app : kApplications) {
    const std::string base = inst.dir + "/" + app;
    inst.cold.push_back(dse::config_from_spec_text(job_spec(app, seed, base + ".cold.xjl", cache)));
    inst.warm.push_back(dse::config_from_spec_text(job_spec(app, seed, base + ".warm.xjl", cache)));
  }
  inst.setup_s = seconds(t0, now_ns());
  return inst;
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

struct PhaseRun {
  double timed_s = 0.0;
  std::vector<double> call_s;
  std::vector<std::string> digests;
  std::vector<std::uint64_t> evaluations;
  Counters counters;
};

double count(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

/// Share of a warm phase's evaluations served by the result cache.
double cache_hit_ratio(const Counters& warm) {
  const double hits = count(warm, "dse.cache_hits");
  const double total = hits + count(warm, "dse.computed");
  return total > 0.0 ? hits / total : 0.0;
}

/// (point, tier) evaluations a job computed or was served.
std::uint64_t evaluations(const Counters& c) {
  return static_cast<std::uint64_t>(count(c, "dse.computed") + count(c, "dse.cache_hits") +
                                    count(c, "dse.journal_hits"));
}

PhaseRun run_phase(const std::vector<dse::EngineConfig>& jobs, const char* span, Tracer& tracer) {
  PhaseRun out;
  for (const dse::EngineConfig& job : jobs) {
    JobOutcome o;
    {
      Span s(tracer, span);
      o = explore_in_child(job);
    }
    out.call_s.push_back(seconds(o.start_ns, o.end_ns));
    out.timed_s += out.call_s.back();
    out.digests.push_back(o.digest);
    out.evaluations.push_back(evaluations(o.counters));
    accumulate(out.counters, o.counters);
  }
  return out;
}

/// One dse_sweep instance: set-up, cold phase, warm phase.
struct SweepRun {
  Instance inst;
  PhaseRun cold;
  PhaseRun warm;
  double journal_bytes = 0.0;
  double cache_bytes = 0.0;
};

SweepRun sweep(std::uint64_t seed, const std::string& dir, Tracer& tracer) {
  SweepRun run;
  run.inst = set_up(seed, dir, tracer);
  run.cold = run_phase(run.inst.cold, "dse.cold_job", tracer);
  for (const dse::EngineConfig& job : run.inst.cold) run.journal_bytes += file_bytes(job.journal_path);
  run.cache_bytes = file_bytes(run.inst.dir + "/results.xrc");
  run.warm = run_phase(run.inst.warm, "dse.warm_job", tracer);
  fs::remove_all(dir);
  return run;
}

/// One check record per job, keyed "<seed>/<application>": the digest of its
/// cold result and of its warm rerun, which must be the same bytes.
void record_checks(RawResult& raw, const SweepRun& run) {
  for (std::size_t j = 0; j < kApplications.size(); ++j)
    raw.checked.push_back({std::to_string(run.inst.seed) + "/" + kApplications[j],
                           {{"cold", json_str(run.cold.digests[j])},
                            {"warm", json_str(run.warm.digests[j])},
                            {"cold_evaluations", std::to_string(run.cold.evaluations[j])},
                            {"warm_evaluations", std::to_string(run.warm.evaluations[j])}}});
}

/// Per-pass layer values of a traced instance.
void add_layer(Counters& layer, const SweepRun& run) {
  accumulate(layer, run.cold.counters);
  accumulate(layer, run.warm.counters);
  const double jobs = static_cast<double>(kApplications.size());
  layer["dse.factorizations_per_job"] += count(run.cold.counters, "xbar.factorizations") / jobs;
  layer["dse.cache_hit_ratio"] += cache_hit_ratio(run.warm.counters);
  layer["dse.warm_ops_per_s"] +=
      static_cast<double>(evaluations(run.warm.counters)) / run.warm.timed_s;
  layer["dse.journal_bytes"] += run.journal_bytes;
  layer["dse.cache_bytes"] += run.cache_bytes;
}

}  // namespace

RawResult run_dse_sweep(const Options& opt, Tracer& tracer) {
  RawResult raw;
  const std::string dir = opt.workdir + "/sweep";
  if (!tracer.enabled()) {
    for (std::size_t i = 0; i < opt.rounds; ++i) {
      const SweepRun run = sweep(opt.instances[i % opt.instances.size()], dir, tracer);
      raw.setup_s.push_back(run.inst.setup_s);
      raw.call_s.insert(raw.call_s.end(), run.cold.call_s.begin(), run.cold.call_s.end());
      raw.round_s.push_back(run.cold.timed_s);
      record_checks(raw, run);
    }
    return raw;
  }
  Tracer off(false);
  Counters layer;
  for (std::size_t i = 0; i < opt.traced_passes(); ++i) {
    const std::uint64_t seed = opt.instances[i % opt.instances.size()];
    const SweepRun base = sweep(seed, dir, off);
    SweepRun traced;
    {
      Span pass(tracer, "bench.sweep");
      traced = sweep(seed, dir, tracer);
    }
    ++raw.passes;
    raw.untraced_s += base.inst.setup_s + base.cold.timed_s + base.warm.timed_s;
    raw.traced_s += traced.inst.setup_s + traced.cold.timed_s + traced.warm.timed_s;
    const SweepRun* runs[] = {&base, &traced};
    for (const SweepRun* run : runs) record_checks(raw, *run);
    add_layer(layer, traced);
  }
  raw.layer.insert(layer.begin(), layer.end());
  return raw;
}

}  // namespace perfbench
