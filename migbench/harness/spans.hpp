// Span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around the calls it
// makes into each layer's public entry point; nothing inside the library
// is instrumented for this. Records stay in memory and are written out
// once, as Chrome trace_event JSON, when the run ends. With recording off
// (the untraced run) every call is a no-op, so the end-to-end metrics are
// measured without it.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace migbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;     ///< small per-thread index of the recording thread
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  static SpanLog& process();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t open();

  /// Record a finished span under a reserved id (0 reserves one now).
  /// Parent 0 means the innermost open Span on the calling thread.
  /// Returns the span's id, or 0 when recording is off.
  std::uint64_t record(std::uint64_t id, std::string name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0);

  [[nodiscard]] std::string chrome_trace_json() const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> records_;
};

/// RAII span around one call on the current thread; spans opened or
/// recorded on this thread while it is open become its children.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point start_;
};

}  // namespace migbench
