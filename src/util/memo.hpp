// Single-flight memoisation of pure functions: the one memo primitive behind
// every evaluation cache in the stack (tile costs and Eva-CAM projections in
// core::Evaluator, IR-drop tiles and the resilience probe in the DSE fidelity
// ladder, the seed-level resilience contexts).
//
// get(key, compute) returns compute()'s value for `key`, running compute at
// most once per key however many lanes ask at the same time:
//   - the key's slot is created under the map lock, which is released before
//     anything computes, so different keys compute concurrently;
//   - the first caller claims the slot and computes with no lock held;
//     concurrent callers for the same key wait on the slot instead of
//     recomputing, so hit counts and side-effect counters (e.g. nodal
//     factorizations) never depend on the thread count;
//   - a compute that throws leaves the slot empty: the exception reaches the
//     caller, one waiter (if any) takes over, and otherwise the next get()
//     for that key computes again.
//
// The slot is a hand-rolled once (mutex + condition variable), not
// std::call_once: under ThreadSanitizer a compute that throws out of
// call_once leaves the flag "in progress" forever and the retry deadlocks.
//
// compute may itself run parallel_for: the pool's fully-strict helping rule
// (util/parallel.hpp) never makes a lane waiting on a slot run an unrelated
// task, so a nested region cannot re-enter the slot.
//
// Values must be pure functions of their keys — then a memo moves only wall
// clock, never a result.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace xlds::util {

/// Lookup counters of a Memo.  `hits` counts lookups served without running
/// compute, so a cold pass without failures has hits == lookups - entries.
struct MemoStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
};

template <class Key, class Value, class Hash = std::hash<Key>>
class Memo {
 public:
  template <class Compute>
  Value get(const Key& key, Compute&& compute) {
    std::shared_ptr<Slot> slot;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      std::shared_ptr<Slot>& entry = slots_[key];
      if (entry == nullptr) entry = std::make_shared<Slot>();
      slot = entry;  // shared: survives a concurrent clear()
    }
    lookups_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lk(slot->m);
      slot->cv.wait(lk, [&] { return slot->state != State::kComputing; });
      if (slot->state == State::kReady) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return slot->value;
      }
      slot->state = State::kComputing;  // claimed: compute below, unlocked
    }
    try {
      Value value = compute();
      std::lock_guard<std::mutex> lk(slot->m);
      slot->value = value;
      slot->state = State::kReady;
      slot->cv.notify_all();
      return value;
    } catch (...) {
      std::lock_guard<std::mutex> lk(slot->m);
      slot->state = State::kEmpty;
      slot->cv.notify_all();
      throw;
    }
  }

  MemoStats stats() const {
    return {lookups_.load(std::memory_order_relaxed), hits_.load(std::memory_order_relaxed)};
  }

  /// Drop every entry and zero the counters.  Only costs recompute time.
  void clear() {
    std::lock_guard<std::mutex> lk(mutex_);
    slots_.clear();
    lookups_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
  }

 private:
  enum class State { kEmpty, kComputing, kReady };
  struct Slot {
    std::mutex m;
    std::condition_variable cv;
    State state = State::kEmpty;
    Value value{};
  };
  std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<Slot>, Hash> slots_;
  std::atomic<std::size_t> lookups_{0};
  std::atomic<std::size_t> hits_{0};
};

}  // namespace xlds::util
