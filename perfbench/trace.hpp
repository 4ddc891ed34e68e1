// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only around the benchmark's own calls into the library
// (name, start, end, parent), kept in memory and written once at the end as
// Chrome trace-event JSON.  A disabled tracer records nothing, so the same
// workload code serves the untraced (end-to-end) and traced (per-layer) runs.
// Single-threaded by design: every span opens and closes on the thread that
// drives the workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Open a span as a child of the innermost open span; returns its id, or
  /// -1 when tracing is off.
  int begin(std::string name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_ns(), -1, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }

  /// Close span `id`.  Called from Span's destructor, so it never throws: a
  /// close out of nesting order marks the trace broken and write_chrome()
  /// reports it.
  void end(int id) noexcept {
    if (id < 0) return;
    if (open_.empty() || open_.back() != id) {
      nesting_broken_ = true;
      return;
    }
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds); the span id
  /// and its parent's id ride in args so the nesting survives any viewer.
  void write_chrome(const std::string& path) const {
    if (nesting_broken_ || !open_.empty()) throw std::logic_error("spans did not nest");
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << std::fixed << std::setprecision(3);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Rec& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << static_cast<double>(s.start_ns - origin) * 1e-3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("failed writing trace " + path);
  }

 private:
  struct Rec {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  bool enabled_;
  std::vector<Rec> spans_;
  std::vector<int> open_;
  bool nesting_broken_ = false;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, std::string name) : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
