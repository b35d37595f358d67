// SweepEngine — the execution core of the fleet.
//
// The coordinator (service/coordinator.hpp) owns the queue and the
// workers; the engine owns everything a run needs regardless of which
// worker executes it: the registered pools (each with its own
// CheckContext/CheckPipeline/IncrementalScanner and a per-pool mutex), the
// report sinks, the module hook, the per-sweep event state used by the
// WriteWatch skip optimization, the fleet-wide DirtyTracker subscribers,
// and the run-level counters.
//
// Because every per-pool warm cache and event state lives here, a sweep's
// simulated cost depends only on the order of runs *within its pool*
// (serialized by the pool mutex), never on which worker popped it.
//
// The engine does not own a queue, workers, or cancellation state.
// execute() takes a cancellation probe (backed by the queue) and returns
// the run's recurrence, if any, for the coordinator to queue; it never
// schedules anything itself.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "modchecker/incremental.hpp"
#include "modchecker/pipeline.hpp"
#include "service/report.hpp"
#include "service/sweep_queue.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace mc::service {

struct EngineConfig {
  /// Registry backing the run counters and, unless a pool's own config
  /// says otherwise, every pool pipeline (null = process default).
  telemetry::MetricRegistry* metrics = nullptr;
  /// Span recorder shared with every pool pipeline that does not bring its
  /// own; pair it with a ChromeTraceSink for a browsable fleet timeline.
  telemetry::TraceRecorder* tracer = nullptr;
  /// Attach a registry snapshot to every SweepReport ("telemetry" field).
  bool emit_telemetry = false;
};

class SweepEngine {
 public:
  /// Answers "has this sweep been cancelled?" — backed by the queue;
  /// consulted between module scans of an in-flight run.
  using CancelProbe = std::function<bool(SweepId)>;

  explicit SweepEngine(EngineConfig config);
  ~SweepEngine();

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  /// Registers a pool of VMs on one hypervisor; returns the index
  /// SweepSpec::pool_index refers to.  Not thread-safe; the coordinator
  /// enforces the before-start() discipline.
  std::size_t add_pool(const vmm::Hypervisor& hypervisor,
                       std::vector<vmm::DomainId> vms,
                       core::ModCheckerConfig config = {});

  void add_sink(std::shared_ptr<SweepSink> sink);

  void set_module_hook(
      std::function<void(SweepId, std::size_t, const std::string&)> hook);

  /// Subscribes one DirtyTracker per distinct hypervisor (write-pressure
  /// observability).  Call once when workers spin up.
  void attach_trackers();

  /// Unsubscribes the trackers.  Call after the workers have joined so no
  /// callback outlives the service.
  void detach_trackers();

  /// Executes one run to completion: scans (full or event-driven), bumps
  /// the run counters, emits the report to every sink, and returns the
  /// recurrence run (due += cadence) for the caller to queue — nullopt
  /// when the chain ends (last run, or cancelled).  Thread-safe: the
  /// per-pool mutex serializes same-pool runs, cross-pool runs proceed in
  /// parallel.
  std::optional<QueuedSweep> execute(QueuedSweep run,
                                     const CancelProbe& is_cancelled);

  /// Drops the event state of sweep `id` — for a chain that ends outside
  /// execute(): a recurrence the coordinator could not queue (queue
  /// closed, tick shed or evicted), a pending run struck by cancel, or a
  /// backlog run dropped by stop().
  /// No-op for ids without state.  Thread-safe.
  void forget(SweepId id);

  /// Dirty-prioritization hint for `run` at this instant: the summed
  /// per-domain write-generation advance on the run's pool since the
  /// sweep's last completed run (raw generation sum before the first run
  /// — a never-scanned, written-to pool is maximally urgent).  0 for
  /// non-event-driven sweeps: full sweeps keep their pure FIFO tie-break.
  std::uint64_t dirty_score(const QueuedSweep& run) const;

  std::size_t pool_count() const { return pools_.size(); }

  telemetry::MetricRegistry& metrics() const { return *metrics_; }
  telemetry::TraceRecorder* tracer() const { return config_.tracer; }
  bool emit_telemetry() const { return config_.emit_telemetry; }

  /// Run-level counter snapshot (this engine's own contribution).
  // mc-lint: allow(adhoc-stats)
  struct RunStats {
    std::uint64_t completed_runs = 0;   // runs that finished every module
    std::uint64_t cancelled_runs = 0;   // runs stopped mid-sweep
    /// VM-quarantine observations across all runs (one per VM per run in
    /// which it exhausted its acquire retries).
    std::uint64_t quarantine_events = 0;
    /// Runs cut short because quarantine left fewer than two answering
    /// VMs.
    std::uint64_t exhausted_runs = 0;
    /// Event-driven runs that re-emitted the previous results because the
    /// watch layer proved every pool domain unchanged.
    std::uint64_t sweeps_skipped_clean = 0;
    /// Event-driven runs that actually scanned (incrementally).
    std::uint64_t event_runs = 0;
  };
  RunStats run_stats() const;

 private:
  struct Pool {
    const vmm::Hypervisor* hypervisor;
    std::vector<vmm::DomainId> vms;
    std::unique_ptr<core::CheckContext> context;
    std::unique_ptr<core::CheckPipeline> pipeline;
    /// Event-driven sweeps scan through this instead of `pipeline` — its
    /// per-module caches persist across cadence ticks (guarded by `mutex`
    /// like every other per-pool scan).
    std::unique_ptr<core::IncrementalScanner> incremental;
    std::mutex mutex;  // serializes sweeps targeting this pool
  };

  /// What an event-driven sweep remembers between cadence ticks: the
  /// per-domain write generations observed before its last completed run
  /// and that run's results (re-emitted verbatim on clean ticks).
  struct EventState {
    bool has_report = false;
    std::map<vmm::DomainId, std::uint64_t> generations;
    std::vector<core::PoolScanReport> scans;
    std::vector<SweepFinding> findings;
  };

  /// WriteWatch subscriber counting write activity fleet-wide (telemetry:
  /// "fleet.dirty_domains_observed" / "fleet.watch_notifications"); one per
  /// distinct hypervisor, live between attach and detach.
  class DirtyTracker;

  /// The classic full-scan body (caller holds pool.mutex).
  void run_full_locked(Pool& pool, const QueuedSweep& run,
                       const CancelProbe& is_cancelled, SweepReport& report);
  /// The event-driven body: skip-if-clean via per-domain write
  /// generations, else incremental scan (caller holds pool.mutex).
  void run_event_locked(Pool& pool, const QueuedSweep& run,
                        const CancelProbe& is_cancelled, SweepReport& report,
                        telemetry::SpanScope& span);
  void emit(const SweepReport& report);
  /// The sweep's event state, created (and counted) on first use; caller
  /// holds event_mutex_.
  EventState& event_state_locked(SweepId id);

  EngineConfig config_;
  telemetry::MetricRegistry* metrics_;  // resolved, never null

  // Atomic registry cells ("service.*" / "fleet.*") for run outcomes.
  telemetry::OwnedCounter completed_runs_;
  telemetry::OwnedCounter cancelled_runs_;
  telemetry::OwnedCounter quarantine_events_;
  telemetry::OwnedCounter exhausted_runs_;
  telemetry::OwnedCounter sweeps_skipped_clean_;
  telemetry::OwnedCounter event_runs_;
  /// Live event states ("service.event_states"): one per event-driven
  /// sweep whose chain has not ended.
  telemetry::Gauge event_states_gauge_;

  std::vector<std::unique_ptr<Pool>> pools_;
  std::vector<std::unique_ptr<DirtyTracker>> trackers_;
  mutable std::mutex event_mutex_;  // guards event_states_
  /// Erased when the sweep's chain ends, so only live sweeps hold reports.
  std::map<SweepId, EventState> event_states_;
  std::vector<std::shared_ptr<SweepSink>> sinks_;
  std::function<void(SweepId, std::size_t, const std::string&)> module_hook_;
};

}  // namespace mc::service
