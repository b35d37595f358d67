// SweepReport and the pluggable report sinks — the output surface of the
// fleet service, shared by the engine that fills reports and the sinks
// that consume them.  The JSON emitted by to_json is a stability contract:
// optional fields (quarantine, skip, telemetry) are emitted only when set,
// so a healthy run's line stays byte-identical to the historical schema.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "modchecker/pipeline.hpp"
#include "service/sweep_queue.hpp"
#include "telemetry/trace.hpp"

namespace mc::service {

/// One (module, VM) vote failure surfaced by a sweep.
struct SweepFinding {
  std::string module;
  vmm::DomainId vm = 0;
  std::size_t successes = 0;
  std::size_t total = 0;
};

/// Result of one run of a sweep (a recurring sweep emits one per run).
struct SweepReport {
  SweepId id = 0;
  std::string name;
  std::size_t pool_index = 0;
  std::size_t run_index = 0;  // 0-based recurrence counter
  SimNanos due = 0;           // simulated due time of this run
  /// True when the sweep was cancelled mid-run: `scans` then holds the
  /// prefix of modules completed before the flag was seen.
  bool cancelled = false;
  /// Per-module pool scans, in SweepSpec::modules order.
  std::vector<core::PoolScanReport> scans;
  /// Flattened (module, VM) pairs whose vote failed.
  std::vector<SweepFinding> findings;
  /// VMs quarantined during this run (union across its module scans,
  /// first-observation order).  A quarantined VM sits out the *rest of
  /// this run*; the next cadence tick starts again from the full pool, so
  /// a recovered guest rejoins automatically.
  std::vector<vmm::DomainId> quarantined;
  /// Quarantine shrank the pool below two answering VMs: the remaining
  /// module scans of this run were skipped (cross-comparison needs peers).
  bool pool_exhausted = false;
  /// Event-driven run that scanned nothing: the WriteWatch layer proved no
  /// write landed on any pool domain since the previous completed run, so
  /// `scans`/`findings` re-emit that run's (byte-identical) results.
  bool skipped_clean = false;
  SimNanos wall_time = 0;  // summed simulated scan wall time
  core::ComponentTimes cpu_times;
  /// Registry snapshot JSON, filled only when the service's emit_telemetry
  /// is set; serialized as a "telemetry" field when (and only when)
  /// non-empty.
  std::string telemetry_json;
};

/// {"sweep": ..., "run": ..., "cancelled": ..., "findings": [...],
///  "scans": [...]} — reuses core::to_json(PoolScanReport) per scan.
std::string to_json(const SweepReport& report);

/// Pluggable sweep-report consumer.  on_sweep may be called concurrently
/// from several workers; implementations must be thread-safe.
class SweepSink {
 public:
  virtual ~SweepSink() = default;
  virtual void on_sweep(const SweepReport& report) = 0;
};

/// Fixed-capacity in-memory ring of the most recent reports (the
/// operator's "what happened lately" buffer).
class RingSink : public SweepSink {
 public:
  explicit RingSink(std::size_t capacity = 256);

  void on_sweep(const SweepReport& report) override;

  /// Oldest-first copy of the buffered reports.
  std::vector<SweepReport> snapshot() const;

  /// Total reports ever seen (>= snapshot().size() once wrapped).
  std::uint64_t total_seen() const;

 private:
  mutable std::mutex mutex_;
  std::deque<SweepReport> ring_;
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
};

/// Serializes every report as one JSON line to a stream (the existing
/// report_json schema — SIEM/alerting integration surface).  A stream
/// write failure must not take the monitoring service down with it: the
/// sink counts the failure, clears the stream's error state and keeps
/// accepting reports (each line is retried independently).
class JsonLinesSink : public SweepSink {
 public:
  explicit JsonLinesSink(std::ostream& os) : os_(&os) {}

  void on_sweep(const SweepReport& report) override;

  /// Reports dropped because the stream went bad mid-write.
  std::uint64_t write_failures() const;

 private:
  mutable std::mutex mutex_;
  std::ostream* os_;
  std::uint64_t write_failures_ = 0;
};

/// Streams completed trace spans as Chrome trace_event JSONL (the JSON
/// Array Format) — point it at a file, hand the same TraceRecorder to the
/// CoordinatorConfig, and the whole multi-pool sweep timeline opens in
/// chrome://tracing / Perfetto.  Each on_sweep drains the recorder, so the
/// file grows as the fleet runs; finish() (or destruction) drains one last
/// time and closes the JSON array.
class ChromeTraceSink : public SweepSink {
 public:
  ChromeTraceSink(std::ostream& os, telemetry::TraceRecorder& recorder)
      : os_(&os), recorder_(&recorder) {}

  ~ChromeTraceSink() override { finish(); }

  void on_sweep(const SweepReport& report) override;

  /// Drains any remaining spans and writes the closing bracket.
  /// Idempotent; further on_sweep calls become no-ops.
  void finish();

  std::uint64_t events_written() const;

 private:
  void write_events_locked();

  mutable std::mutex mutex_;
  std::ostream* os_;
  telemetry::TraceRecorder* recorder_;
  bool header_written_ = false;
  bool finished_ = false;
  std::uint64_t events_ = 0;
};

}  // namespace mc::service
