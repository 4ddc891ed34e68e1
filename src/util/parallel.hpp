// Deterministic parallel execution for design-space sweeps.
//
// The framework's throughput story (evaluations/second gates design-space
// coverage) needs the Monte Carlo trial loops and per-point evaluator sweeps
// to run on all cores — but reproducibility is a core requirement, so the
// parallel layer guarantees a stronger invariant than "thread safe":
//
//   results are bit-identical regardless of the thread count.
//
// Three rules make that hold:
//   1. Work is split into chunks whose boundaries depend only on (n, chunk),
//      never on how many threads execute them or which lane runs them.
//   2. Stochastic chunks each get their own Rng forked *sequentially on the
//      calling thread* (parallel_for_rng), so stream assignment is a pure
//      function of the chunk index — no shared sequential generator.
//   3. Reductions are performed per chunk and combined in chunk-index order
//      by the caller (floating-point sums stay order-stable).
//
// Scheduling decides only *where* and *when* a chunk executes, never *what*
// it computes, so the scheduler is free to be dynamic.  Chunks are grouped
// into tasks, distributed round-robin across per-lane deques, and idle lanes
// steal from the back of other lanes' deques.  Nested parallel_for calls
// issued from inside a task participate cooperatively: the issuing worker
// submits the inner tasks to the shared deques and helps execute them
// (stealing back only work that descends from the job it is waiting on, so a
// lock held around a nested region — or a util::Memo slot being computed —
// can never be re-entered: fully-strict helping).
//
// Exception propagation is deterministic: when chunks throw,
// the chunk with the *lowest index* wins (chunks below a recorded failure
// always still run; chunks above it are skipped), so the caller sees the same
// exception serial execution would produce — not whichever thread lost a race.
//
// The pool is lazily started; its width comes from the XLDS_THREADS
// environment variable (default: hardware_concurrency) and can be changed at
// runtime with set_parallel_threads().  The width never changes results —
// only wall-clock time.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "util/rng.hpp"

namespace xlds {

/// Current pool width (total execution lanes including the calling thread).
/// Starts the pool on first use.
std::size_t parallel_thread_count();

/// Resize the pool: n lanes, or 0 to re-read XLDS_THREADS / fall back to
/// hardware_concurrency.  Blocks until any in-flight job finishes.  Changing
/// the width never changes results — only wall-clock time.
void set_parallel_threads(std::size_t n);

/// Pre-fork contract.  fork() only duplicates the calling thread: in a child
/// forked while the pool's workers exist, every worker thread is gone but the
/// pool's bookkeeping still says they are running — and a deque or wake mutex
/// a worker held at the fork instant stays locked forever in the child.  Any
/// code that forks this process while the pool may be live MUST call this first:
/// it waits out any in-flight job, joins and discards every worker thread,
/// and leaves the pool in a quiesced state (no pool mutex held, no threads)
/// from which the next parallel call — in the parent or in the child —
/// lazily rebuilds the workers at the previously configured width.  The
/// caller must not issue parallel work from other threads between the
/// quiesce and the fork().  Results are unaffected (determinism rule: lane
/// count and pool lifetime never change what a chunk computes).
void parallel_quiesce_for_fork();

/// Chunk size used when parallel_for is called with chunk == 0.  Depends only
/// on n (never on the thread count), preserving the determinism contract.
std::size_t default_parallel_chunk(std::size_t n);

/// Run body(begin, end, chunk_index) over [0, n) split into fixed chunks of
/// `chunk` indices (last chunk ragged; chunk == 0 selects
/// default_parallel_chunk(n)).  Blocks until every chunk completes.  The
/// lowest-chunk-index exception is rethrown on the calling thread (chunks
/// with higher indices are skipped once a failure is recorded).
///
/// `min_items_per_task` is a scheduling hint, not a semantic knob: chunks are
/// grouped so each dispatched task covers at least that many items, letting
/// tiny batches skip fork/join overhead entirely.  Grouping never moves chunk
/// boundaries, so results are unaffected.
void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t begin, std::size_t end,
                                           std::size_t chunk_index)>& body,
                  std::size_t min_items_per_task = 0);

/// parallel_for with a private Rng stream per chunk: the streams are forked
/// from `rng` sequentially (chunk 0 first) on the calling thread before any
/// chunk runs, so the draw each trial sees is a pure function of its chunk —
/// the replacement for sharing one sequential generator across a trial loop.
void parallel_for_rng(Rng& rng, std::size_t n, std::size_t chunk,
                      const std::function<void(Rng& chunk_rng, std::size_t begin,
                                               std::size_t end, std::size_t chunk_index)>& body,
                      std::size_t min_items_per_task = 0);

/// Map fn over [0, n) into a vector (out[i] = fn(i)), preserving index order.
/// T must be default-constructible and move-assignable.
template <class T, class Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn, std::size_t chunk = 1,
                            std::size_t min_items_per_task = 0) {
  std::vector<T> out(n);
  parallel_for(
      n, chunk,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
      },
      min_items_per_task);
  return out;
}

/// Order-stable parallel sum: each chunk accumulates locally, partial sums
/// combine in chunk-index order — deterministic at any thread count.
/// fn(i) -> double.
template <class Fn>
double parallel_sum(std::size_t n, std::size_t chunk, Fn&& fn,
                    std::size_t min_items_per_task = 0) {
  if (chunk == 0) chunk = default_parallel_chunk(n);
  const std::size_t n_chunks = n == 0 ? 0 : (n + chunk - 1) / chunk;
  std::vector<double> partial(n_chunks, 0.0);
  parallel_for(
      n, chunk,
      [&](std::size_t begin, std::size_t end, std::size_t ci) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i) s += fn(i);
        partial[ci] = s;
      },
      min_items_per_task);
  double total = 0.0;
  for (double s : partial) total += s;
  return total;
}

}  // namespace xlds
