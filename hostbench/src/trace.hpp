// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its calls into the program's
// public entry points (never inside the program).  Each span carries a
// name, host start/end times, the index of the span that caused it and a
// request id shared by every span of one operation.  Spans stay in memory
// until the run ends; a layer's self time is its span's duration minus
// the part of that interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

/// Host nanoseconds since an arbitrary fixed origin.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr int kNoParent = -1;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = kNoParent;
  std::uint64_t request = 0;
};

/// Thread-safe append-only span store.  A disabled tracer records nothing
/// and returns kNoParent for every span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index.
  int begin(const std::string& name, int parent, std::uint64_t request);
  /// Closes span `id` now (no-op for kNoParent).
  void end(int id);
  /// Records a span whose times were taken elsewhere (cross-thread
  /// operations); returns its index.
  int record(Span span);

  std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const std::string& name, int parent,
            std::uint64_t request)
      : tracer_(&tracer), id_(tracer.begin(name, parent, request)) {}
  ~SpanScope() { tracer_->end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to the parent's interval.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-request self time of each span name: result[name][request] is the
/// summed self time (ns) of that name's spans in that request.
std::map<std::string, std::map<std::uint64_t, std::int64_t>> self_by_request(
    const std::vector<Span>& spans);

}  // namespace hostbench
