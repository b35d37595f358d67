// Stage-level trace spans.
//
// A TraceRecorder collects nested, named spans from every pipeline stage and
// fleet sweep.  Each span is stamped twice:
//
//   wall time — std::chrono::steady_clock, relative to recorder creation.
//     This is the timeline Chrome/Perfetto renders (ts/dur microseconds),
//     because it is the only clock shared by every thread and pool.
//   sim time  — the stage's SimClock (when one is in scope): start value and
//     delta are attached as span args.  Per-task SimClocks start at zero, so
//     sim time cannot order a global timeline, but the per-span sim duration
//     is the number the paper's figures are built from.
//
// Spans carry a (process, track) pair that maps onto Chrome's (pid, tid):
// ShardCoordinator assigns one process per pool and the pipeline uses the
// guest DomainId as the track, so a multi-pool sweep opens in
// chrome://tracing / Perfetto as one lane per guest per pool.
//
// Concurrency: span() and SpanScope destruction are thread-safe (completed
// spans are appended under a mutex); nesting depth is tracked per thread, so
// a span must begin and end on the same thread — true for every stage, which
// runs inside one ThreadPool task.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/sim_clock.hpp"

namespace mc::telemetry {

/// One key/value annotation on a span.  `is_number` selects raw vs quoted
/// JSON rendering.
struct SpanArg {
  std::string key;
  std::string value;
  bool is_number = false;
};

/// A completed span.
struct SpanRecord {
  std::string name;
  std::string category;
  std::uint64_t process = 0;  // Chrome pid (pool index; 0 = standalone)
  std::uint64_t track = 0;    // Chrome tid (guest DomainId; 0 = orchestrator)
  std::uint64_t wall_start_ns = 0;  // since recorder creation
  std::uint64_t wall_dur_ns = 0;
  SimNanos sim_start = 0;  // owning SimClock at open (0 when no clock)
  SimNanos sim_dur = 0;
  std::uint32_t depth = 0;  // nesting depth on the opening thread
  std::uint64_t seq = 0;    // completion order
  std::vector<SpanArg> args;
};

class TraceRecorder;

/// RAII span: completes (and hands itself to the recorder) on destruction
/// or an explicit end().  Move-only; a default-constructed scope is a no-op,
/// which is how `tracer == nullptr` costs nothing.
class SpanScope {
 public:
  SpanScope() = default;
  SpanScope(SpanScope&& other) noexcept { move_from(other); }
  SpanScope& operator=(SpanScope&& other) noexcept {
    if (this != &other) {
      end();
      move_from(other);
    }
    return *this;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { end(); }

  explicit operator bool() const { return recorder_ != nullptr; }

  void arg(std::string key, std::string value) {
    if (recorder_ != nullptr) {
      record_.args.push_back({std::move(key), std::move(value), false});
    }
  }
  void arg(std::string key, std::uint64_t value) {
    if (recorder_ != nullptr) {
      record_.args.push_back(
          {std::move(key), std::to_string(value), true});
    }
  }

  /// Completes the span now (idempotent).
  void end();

 private:
  friend class TraceRecorder;
  SpanScope(TraceRecorder* recorder, SpanRecord record, const SimClock* clock)
      : recorder_(recorder), clock_(clock), record_(std::move(record)) {}

  void move_from(SpanScope& other) noexcept {
    recorder_ = other.recorder_;
    clock_ = other.clock_;
    record_ = std::move(other.record_);
    other.recorder_ = nullptr;
    other.clock_ = nullptr;
  }

  TraceRecorder* recorder_ = nullptr;
  const SimClock* clock_ = nullptr;
  SpanRecord record_;
};

class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Opens a span.  `clock`, when given, stamps sim_start now and sim_dur at
  /// completion; pass nullptr for wall-only spans (e.g. fleet sweeps).
  SpanScope span(std::string name, std::string category,
                 std::uint64_t process = 0, std::uint64_t track = 0,
                 const SimClock* clock = nullptr);

  /// Removes and returns every completed span, FIFO by completion.
  std::vector<SpanRecord> drain();

  /// Copy of the completed spans, without clearing.
  std::vector<SpanRecord> snapshot() const;

  std::size_t completed() const;

 private:
  friend class SpanScope;
  void complete(SpanRecord&& record);
  std::uint64_t wall_now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> done_;
  std::uint64_t next_seq_ = 0;
};

/// Null-safe span helper: no recorder, no span, no cost.
inline SpanScope span(TraceRecorder* recorder, std::string name,
                      std::string category, std::uint64_t process = 0,
                      std::uint64_t track = 0,
                      const SimClock* clock = nullptr) {
  if (recorder == nullptr) {
    return SpanScope();
  }
  return recorder->span(std::move(name), std::move(category), process, track,
                        clock);
}

/// Chrome trace_event serialization (the JSON Array Format: a `[` line,
/// one event object per line, `]` close — loads in chrome://tracing and
/// Perfetto).  One SpanRecord becomes one complete ("ph":"X") event with
/// ts/dur in wall microseconds and sim_start_ns/sim_dur_ns among the args.
std::string chrome_trace_event(const SpanRecord& record);

/// Writes a whole trace document for `records`.
void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanRecord>& records);

}  // namespace mc::telemetry
