// Crash-safe append-only result journal for design-space exploration.
//
// An exploration that dies — OOM-killed on a shared box, pre-empted in CI,
// ^C'd by an impatient user — must not re-pay for the evaluations it already
// finished: the expensive tiers of the fidelity ladder cost seconds per
// point.  The journal makes every completed evaluation durable the moment it
// finishes:
//
//   header:  magic "XLDSJNL1" | format version u32 | job hash u64
//   record:  body length u32 | body | FNV-1a-64 checksum of the body
//            (util/record_log.hpp, shared with the result cache)
//   body v2: point key u64 | fidelity u32 | feasible u8 | pad[3]
//            | latency f64 | energy f64 | area_mm2 f64 | accuracy f64
//            | uncertainty f64 | note length u32 | note bytes
//
// Version history.  v1 (three-tier ladder: analytic = 0) had no uncertainty
// field and numbered tiers before the surrogate rung existed.  Opening a v1
// journal upgrades it in place — tiers remapped (+1) into the 4-tier
// numbering, uncertainty zeroed, file atomically rewritten as v2 — so a
// legacy run resumes bit-identically: FOM bytes are untouched and the tier
// remap is exactly the enum renumbering.  v2 (current) stores the surrogate
// model's relative-std next to each prediction so a resumed run replays not
// just the predicted FOM but the uncertainty the promotion policy saw.
//
// Append is write + flush; there is no in-place mutation, so the only
// possible corruption is a torn tail from a mid-write crash.  Opening an
// existing journal replays records until the first torn or checksum-failed
// one and truncates the file there — everything before it is trusted,
// everything after is garbage by construction.  The job hash (space, app,
// fidelity settings — everything a FOM value depends on, deliberately *not*
// the search seed/strategy/budget, which only affect which points get
// visited) stops a journal from one job from silently poisoning another.
//
// Records are keyed by (point index, fidelity tier): replaying a journal
// into a memo map is exactly the dedup a stochastic search needs, and a
// resumed run that re-requests the same (key, tier) sequence gets
// bit-identical FOMs without recomputing any of them.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/evaluate.hpp"

namespace xlds::dse {

class Journal {
 public:
  struct Record {
    std::uint64_t key = 0;      ///< SearchSpace point index
    std::uint32_t fidelity = 0; ///< ladder tier the FOM was computed at
    core::Fom fom;
    /// Surrogate relative-std at prediction time (0 for physics tiers).
    double uncertainty = 0.0;
  };

  struct OpenInfo {
    bool existed = false;          ///< file was present (resume)
    bool upgraded = false;         ///< legacy v1 file rewritten as v2
    std::size_t replayed = 0;      ///< intact records recovered
    std::size_t dropped_bytes = 0; ///< torn/corrupt tail truncated away
  };

  /// Open `path` for append, creating it (with a header) when absent.  An
  /// existing file must carry a matching job hash (PreconditionError
  /// otherwise — resuming a different job is always a bug); its intact
  /// record prefix is replayed into records() and any torn tail truncated.
  /// Legacy v1 files are upgraded to v2 in place (atomic rewrite) first.
  Journal(std::string path, std::uint64_t job_hash);

  const std::string& path() const noexcept { return path_; }
  const OpenInfo& open_info() const noexcept { return open_info_; }

  /// Records replayed at open time (append() does not extend this view;
  /// the writer already holds them in its own archive).
  const std::vector<Record>& records() const noexcept { return records_; }

  /// Durably append one finished evaluation (write + flush).
  void append(const Record& r);

  std::size_t appended() const noexcept { return appended_; }

  /// Read-only integrity scan for tooling (xlds-journal): parses any
  /// journal version without knowing the job hash and without truncating or
  /// rewriting the file.  Tiers come back in the current 4-tier numbering
  /// regardless of the on-disk version.
  struct InspectInfo {
    std::uint32_t version = 0;     ///< on-disk format version
    std::uint64_t job_hash = 0;
    std::vector<Record> records;   ///< intact record prefix
    std::size_t dropped_bytes = 0; ///< torn/corrupt tail (left in place)
  };
  static InspectInfo inspect(const std::string& path);

 private:
  std::string path_;
  std::uint64_t job_hash_ = 0;
  OpenInfo open_info_;
  std::vector<Record> records_;
  std::ofstream out_;
  std::size_t appended_ = 0;
};

}  // namespace xlds::dse
