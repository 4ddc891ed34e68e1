#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "core/counters.hpp"
#include "util/env.hpp"

namespace xlds {

namespace {

constexpr std::size_t kNoFailure = ~static_cast<std::size_t>(0);

/// Target number of tasks per execution lane when auto-sizing the task grain:
/// enough slack (8 tasks each) for stealing to rebalance heterogeneous costs,
/// few enough that claim/dispatch overhead stays amortised on tiny units.
constexpr std::size_t kTasksPerLane = 8;

std::size_t env_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return util::env_positive_count("XLDS_THREADS",
                                  hw == 0 ? 1 : static_cast<std::size_t>(hw));
}

/// One dispatched batch of units (chunks).  `unit` is borrowed from the
/// caller's stack frame, which is safe because a claimed task index is
/// bounds-checked against `n_tasks` before `unit` is ever dereferenced —
/// a thread waking up late against a drained job never touches freed state.
struct Job {
  Job(const std::function<void(std::size_t)>& u, std::size_t units, std::size_t g,
      Job* parent_job)
      : unit(u),
        total_units(units),
        group(g),
        n_tasks((units + g - 1) / g),
        remaining(units),
        parent(parent_job) {}

  const std::function<void(std::size_t)>& unit;
  const std::size_t total_units;
  const std::size_t group;  ///< units per task (task k covers [k*group, ...))
  const std::size_t n_tasks;
  std::atomic<std::size_t> remaining;  ///< units not yet finished
  std::atomic<std::size_t> fail_unit{kNoFailure};  ///< lowest unit index that threw
  std::exception_ptr error;  ///< exception of fail_unit; guarded by Pool::error_mutex_
  Job* const parent;  ///< job whose unit spawned this one (nested), else nullptr
};

/// A claimable entry in a lane's deque: one task of one job.
struct TaskRange {
  Job* job = nullptr;
  std::size_t task = 0;
};

/// Pool lane of the current thread: workers are lanes 1..W for life, the
/// external job submitter borrows lane 0 for the duration of its job
/// (exclusive because run_mutex_ serialises top-level jobs).
thread_local int t_lane = -1;

/// Innermost job whose unit this thread is currently executing.  Non-null
/// means "we are inside pool work": a parallel_for issued here is a nested
/// job, and this pointer becomes its parent (the ancestry chain is what
/// restricts helping to descendants — see help_until_done).
thread_local Job* t_current_job = nullptr;

/// Lazily-started pool: one top-level job at a time (run_mutex_), executed
/// through per-lane deques with stealing.  Dynamic placement is fine under
/// the determinism contract because every unit is self-contained (rules 1-2
/// in the header): which lane runs a chunk never influences the chunk's
/// result.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t lanes() {
    std::lock_guard<std::mutex> lk(config_mutex_);
    ensure_started_locked();
    return workers_.size() + 1;  // workers plus the calling thread
  }

  void resize(std::size_t n) {
    std::lock_guard<std::mutex> run_lk(run_mutex_);  // wait out any in-flight job
    std::lock_guard<std::mutex> lk(config_mutex_);
    stop_workers_locked();
    started_ = true;
    quiesced_ = false;
    target_lanes_ = n == 0 ? env_thread_count() : n;
    start_workers_locked();
  }

  /// Pre-fork quiesce (see parallel.hpp): join every worker so the process
  /// is single-threaded and no pool mutex is held when fork() runs.  The
  /// target width is kept; the next job lazily restarts the workers — in
  /// whichever process (parent or child) issues it.
  void quiesce_for_fork() {
    std::lock_guard<std::mutex> run_lk(run_mutex_);  // wait out any in-flight job
    std::lock_guard<std::mutex> lk(config_mutex_);
    if (!started_ || quiesced_) return;
    stop_workers_locked();
    quiesced_ = true;
  }

  /// Run unit(u) for every u in [0, n_units) grouped into tasks of at least
  /// `min_units` units, block until all complete, rethrow the lowest-index
  /// recorded exception.
  void run_units(std::size_t n_units, std::size_t min_units,
                 const std::function<void(std::size_t)>& unit) {
    if (n_units == 0) return;
    std::size_t lane_count;
    {
      std::lock_guard<std::mutex> lk(config_mutex_);
      ensure_started_locked();
      lane_count = workers_.size() + 1;
    }

    if (t_current_job != nullptr) {  // nested call from inside a unit
      if (lane_count == 1) {
        core::Profiler::count_sched_nested(/*cooperative=*/false);
        run_inline(n_units, unit);
        return;
      }
      run_nested(n_units, min_units, unit, lane_count);
      return;
    }

    const std::size_t group = task_group(n_units, lane_count, min_units);
    const std::size_t n_tasks = (n_units + group - 1) / group;
    // No workers, below the per-call work floor, or another thread already
    // owns the pool: fork/join overhead cannot pay for itself — run inline.
    // Same chunks, same results (rule 1).
    if (lane_count == 1 || n_tasks == 1 || !run_mutex_.try_lock()) {
      core::Profiler::count_sched_inline_job();
      run_inline(n_units, unit);
      return;
    }
    std::lock_guard<std::mutex> run_lk(run_mutex_, std::adopt_lock);
    core::Profiler::count_sched_job();
    run_stealing(n_units, group, unit, lane_count);
  }

 private:
  struct Lane {
    std::mutex m;
    std::deque<TaskRange> q;
  };

  Pool() = default;

  ~Pool() {
    std::lock_guard<std::mutex> lk(config_mutex_);
    stop_workers_locked();
  }

  void ensure_started_locked() {
    if (started_ && !quiesced_) return;
    if (!started_) {
      started_ = true;
      target_lanes_ = env_thread_count();
    }
    quiesced_ = false;  // lazily rebuild after a pre-fork quiesce
    start_workers_locked();
  }

  void start_workers_locked() {
    const std::size_t n_workers = target_lanes_ > 0 ? target_lanes_ - 1 : 0;
    const std::size_t lane_count = n_workers + 1;
    lanes_.clear();
    for (std::size_t i = 0; i < lane_count; ++i) lanes_.push_back(std::make_unique<Lane>());
    workers_.reserve(n_workers);
    for (std::size_t i = 0; i < n_workers; ++i)
      workers_.emplace_back([this, i, lane_count] { worker_loop(i + 1, lane_count); });
  }

  void stop_workers_locked() {
    {
      std::lock_guard<std::mutex> lk(work_mutex_);
      stopping_ = true;
      ++work_epoch_;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
    {
      std::lock_guard<std::mutex> lk(work_mutex_);
      stopping_ = false;
    }
  }

  /// Units-per-task grain: auto-sized for ~kTasksPerLane tasks per lane
  /// (stealing slack), floored by the caller's minimum-work hint.  Grouping
  /// whole chunks into tasks never moves a chunk boundary, so the lane count
  /// appearing here cannot affect results — only dispatch overhead.
  static std::size_t task_group(std::size_t n_units, std::size_t lanes, std::size_t min_units) {
    const std::size_t balance = std::max<std::size_t>(1, n_units / (kTasksPerLane * lanes));
    return std::max(balance, std::max<std::size_t>(1, min_units));
  }

  static void run_inline(std::size_t n_units, const std::function<void(std::size_t)>& unit) {
    for (std::size_t u = 0; u < n_units; ++u) unit(u);
  }

  /// Execute one task of `job`: its units in index order, skipping units
  /// above the lowest recorded failure.  Units *below* a failure always still
  /// run — only a lower index can displace the recorded exception — which is
  /// what makes propagation first-by-index (= what serial execution throws)
  /// instead of first-by-time.
  void run_task(Job& job, std::size_t task) {
    const std::size_t begin = task * job.group;
    const std::size_t end = std::min(job.total_units, begin + job.group);
    Job* const prev = t_current_job;
    t_current_job = &job;
    for (std::size_t u = begin; u < end; ++u) {
      if (u > job.fail_unit.load(std::memory_order_relaxed)) continue;
      try {
        job.unit(u);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mutex_);
        if (u < job.fail_unit.load(std::memory_order_relaxed)) {
          job.error = std::current_exception();
          job.fail_unit.store(u, std::memory_order_relaxed);
        }
      }
    }
    t_current_job = prev;
    // The release-decrement publishes both the units' effects and any
    // recorded error to the waiter's acquire-load of `remaining`.
    if (job.remaining.fetch_sub(end - begin, std::memory_order_acq_rel) == end - begin) {
      std::lock_guard<std::mutex> lk(done_mutex_);
      done_cv_.notify_all();
    }
  }

  void run_stealing(std::size_t n_units, std::size_t group,
                    const std::function<void(std::size_t)>& unit, std::size_t lane_count) {
    // The job can live on this stack frame: `remaining` only reaches zero
    // after every task has been claimed (removed from a deque) and executed,
    // so no reference to it survives help_until_done returning.
    Job job(unit, n_units, group, nullptr);
    t_lane = 0;  // borrow the submitter lane while run_mutex_ is held
    submit(job, 0, lane_count);
    help_until_done(job, 0, lane_count);
    t_lane = -1;
    if (job.error) std::rethrow_exception(job.error);
  }

  void run_nested(std::size_t n_units, std::size_t min_units,
                  const std::function<void(std::size_t)>& unit, std::size_t lane_count) {
    const std::size_t group = task_group(n_units, lane_count, min_units);
    Job job(unit, n_units, group, t_current_job);
    if (job.n_tasks == 1) {  // below the work floor: not worth sharing
      core::Profiler::count_sched_inline_job();
      run_inline(n_units, unit);
      return;
    }
    core::Profiler::count_sched_nested(/*cooperative=*/true);
    const auto self = static_cast<std::size_t>(t_lane);
    submit(job, self, lane_count);
    help_until_done(job, self, lane_count);
    if (job.error) std::rethrow_exception(job.error);
  }

  /// Push the job's tasks round-robin across all lanes, highest-priority
  /// (lowest) task index pushed last so it sits at the front of the
  /// submitter's own deque — an LPT-ordered caller starts its most expensive
  /// work first while thieves drain the cheap tail from deque backs.
  void submit(Job& job, std::size_t self, std::size_t lane_count) {
    for (std::size_t k = job.n_tasks; k-- > 0;) {
      Lane& lane = *lanes_[(self + k) % lane_count];
      std::lock_guard<std::mutex> lk(lane.m);
      lane.q.push_front(TaskRange{&job, k});
    }
    {
      std::lock_guard<std::mutex> lk(work_mutex_);
      ++work_epoch_;
    }
    work_cv_.notify_all();
  }

  /// Work until `job` has no unfinished units, then return (the caller
  /// rethrows job.error).  Only tasks of `job` or its descendants are taken:
  /// a waiter may hold a lock (or a claimed util::Memo slot) around its
  /// nested parallel region, and helping an *unrelated* task could re-enter
  /// it and self-deadlock.  Fully-strict helping keeps the
  /// stolen work inside the waiter's own call tree, where lock acquisition
  /// is already ordered.  Unrelated tasks still make progress: every other
  /// lane is free to take them.
  void help_until_done(Job& job, std::size_t self, std::size_t lane_count) {
    for (;;) {
      if (job.remaining.load(std::memory_order_acquire) == 0) return;
      TaskRange t;
      if (take_descendant(job, self, lane_count, t)) {
        run_task(*t.job, t.task);
        continue;
      }
      std::unique_lock<std::mutex> lk(done_mutex_);
      done_cv_.wait(lk, [&] { return job.remaining.load(std::memory_order_acquire) == 0; });
    }
  }

  static bool descends(const Job* j, const Job* ancestor) {
    for (; j != nullptr; j = j->parent)
      if (j == ancestor) return true;
    return false;
  }

  /// Take a task of `job` or a descendant: own deque front-to-back first,
  /// then scan other lanes back-to-front (classic owner/thief discipline).
  bool take_descendant(Job& job, std::size_t self, std::size_t lane_count, TaskRange& out) {
    {
      Lane& own = *lanes_[self];
      std::lock_guard<std::mutex> lk(own.m);
      for (auto it = own.q.begin(); it != own.q.end(); ++it) {
        if (!descends(it->job, &job)) continue;
        out = *it;
        own.q.erase(it);
        core::Profiler::count_sched_task(/*stolen=*/false);
        return true;
      }
    }
    for (std::size_t i = 1; i < lane_count; ++i) {
      Lane& victim = *lanes_[(self + i) % lane_count];
      std::lock_guard<std::mutex> lk(victim.m);
      for (auto it = victim.q.rbegin(); it != victim.q.rend(); ++it) {
        if (!descends(it->job, &job)) continue;
        out = *it;
        victim.q.erase(std::next(it).base());
        core::Profiler::count_sched_task(/*stolen=*/true);
        return true;
      }
    }
    return false;
  }

  /// Take any task: own deque front, else steal from another lane's back.
  bool take_any(std::size_t self, std::size_t lane_count, TaskRange& out) {
    {
      Lane& own = *lanes_[self];
      std::lock_guard<std::mutex> lk(own.m);
      if (!own.q.empty()) {
        out = own.q.front();
        own.q.pop_front();
        core::Profiler::count_sched_task(/*stolen=*/false);
        return true;
      }
    }
    for (std::size_t i = 1; i < lane_count; ++i) {
      Lane& victim = *lanes_[(self + i) % lane_count];
      std::lock_guard<std::mutex> lk(victim.m);
      if (!victim.q.empty()) {
        out = victim.q.back();
        victim.q.pop_back();
        core::Profiler::count_sched_task(/*stolen=*/true);
        return true;
      }
    }
    core::Profiler::count_steal_failure();
    return false;
  }

  void worker_loop(std::size_t lane, std::size_t lane_count) {
    t_lane = static_cast<int>(lane);
    for (;;) {
      std::uint64_t epoch;
      {
        std::lock_guard<std::mutex> lk(work_mutex_);
        if (stopping_) return;
        epoch = work_epoch_;
      }
      bool worked = false;
      TaskRange t;
      while (take_any(lane, lane_count, t)) {
        run_task(*t.job, t.task);
        worked = true;
      }
      if (worked) continue;
      // The epoch was read *before* the scans: any submission after that read
      // bumps it and the wait predicate is already true — no lost wakeups.
      std::unique_lock<std::mutex> lk(work_mutex_);
      work_cv_.wait(lk, [&] { return stopping_ || work_epoch_ != epoch; });
      if (stopping_) return;
    }
  }

  std::mutex config_mutex_;  ///< guards started_/target_lanes_/workers_/lanes_
  std::mutex run_mutex_;     ///< held for the duration of one top-level job
  bool started_ = false;
  bool quiesced_ = false;  ///< workers torn down pre-fork; rebuild on next use
  std::size_t target_lanes_ = 1;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< deques; stable while workers run

  std::mutex work_mutex_;  ///< guards work_epoch_/stopping_
  std::condition_variable work_cv_;
  std::uint64_t work_epoch_ = 0;
  bool stopping_ = false;

  std::mutex done_mutex_;  ///< pairs with done_cv_; completion is remaining==0
  std::condition_variable done_cv_;
  std::mutex error_mutex_;  ///< guards Job::error / fail_unit updates
};

}  // namespace

std::size_t parallel_thread_count() { return Pool::instance().lanes(); }

void set_parallel_threads(std::size_t n) { Pool::instance().resize(n); }

void parallel_quiesce_for_fork() { Pool::instance().quiesce_for_fork(); }

std::size_t default_parallel_chunk(std::size_t n) {
  // Aim for ~64 chunks (fine-grained enough to balance, coarse enough to
  // amortise dispatch) — a function of n only, so chunk boundaries and the
  // per-chunk RNG stream assignment survive any thread-count change.
  return std::max<std::size_t>(1, (n + 63) / 64);
}

void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
                  std::size_t min_items_per_task) {
  if (n == 0) return;
  if (chunk == 0) chunk = default_parallel_chunk(n);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  const std::size_t min_units =
      min_items_per_task == 0 ? 0 : (min_items_per_task + chunk - 1) / chunk;
  const std::function<void(std::size_t)> unit = [&](std::size_t ci) {
    const std::size_t begin = ci * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    body(begin, end, ci);
  };
  Pool::instance().run_units(n_chunks, min_units, unit);
}

void parallel_for_rng(Rng& rng, std::size_t n, std::size_t chunk,
                      const std::function<void(Rng&, std::size_t, std::size_t, std::size_t)>& body,
                      std::size_t min_items_per_task) {
  if (n == 0) return;
  if (chunk == 0) chunk = default_parallel_chunk(n);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  // Fork every chunk's stream up front, in chunk order, on this thread: the
  // stream a trial draws from depends only on its chunk index, never on the
  // thread count or execution order.
  std::vector<Rng> streams;
  streams.reserve(n_chunks);
  for (std::size_t ci = 0; ci < n_chunks; ++ci) streams.push_back(rng.fork(ci));
  parallel_for(
      n, chunk,
      [&](std::size_t begin, std::size_t end, std::size_t ci) {
        body(streams[ci], begin, end, ci);
      },
      min_items_per_task);
}

}  // namespace xlds
