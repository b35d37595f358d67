// ShardCoordinator — ModChecker as a resident multi-pool monitor.
//
// The paper's prototype is a one-shot tool (§V: run, print, exit); related
// VMI monitors run as long-lived services instead.  The coordinator is
// that service layer: it owns N registered pools (through the SweepEngine
// below it, each pool with its own CheckContext/CheckPipeline, so warm VMI
// sessions and cost accounting stay per-pool), accepts SweepSpecs (module
// set × pool × cadence × priority), schedules their runs onto worker
// threads, supports cancellation of pending *and* in-flight sweeps plus
// graceful drain, and emits one SweepReport per run to every registered
// sink.  Sweeps marked event_driven consult the hypervisor's WriteWatch at
// each cadence tick: provably-clean ticks re-emit the last results without
// scanning, dirty ticks scan incrementally.
//
// Layering (top to bottom):
//
//   ShardCoordinator    one bounded SweepQueue + admission, W workers
//   SweepEngine         pools, event state, sinks, run execution
//
// Admission.  Every push — a submission or a recurrence — goes through the
// queue's admit() against `queue_capacity` (see service/sweep_queue.hpp):
// recurring ticks are shed before the bound breaks, one-shot and alerted
// sweeps are never dropped.
//
// Threading model (TSan-clean by construction):
//   * pools, sinks and the module hook are fixed before start() — the
//     workers only ever read them;
//   * workers block on SweepQueue::pop(); a per-pool mutex in the engine
//     serializes sweeps that target the same pool, cross-pool runs proceed
//     in parallel;
//   * all cross-thread bookkeeping (queue, cancellation, counters) is
//     behind the queue's mutex or in atomic registry cells.
//
// Lifecycle: add_pool()/add_sink() → start() → submit()/cancel() →
// drain() (run everything queued, then stop) or stop() (drop the backlog,
// finish in-flight module scans, then stop).
//
// The class name, CoordinatorConfig::shards / workers_per_shard and
// Stats::steals survive only because the host-clock benchmark
// (hostbench/src/fleet.cpp) still names them: there is one queue, the
// worker count is shards × workers_per_shard, and steals is always 0.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/engine.hpp"
#include "util/thread_pool.hpp"

namespace mc::service {

struct CoordinatorConfig {
  /// Worker threads (>= 1) per shard; with the default shards = 1 this is
  /// the worker count.
  std::size_t workers_per_shard = 2;
  /// Registry backing the coordinator's counters/gauges and, unless a
  /// pool's own config says otherwise, every pool pipeline (null = process
  /// default).
  telemetry::MetricRegistry* metrics = nullptr;
  /// Span recorder shared with every pool pipeline that does not bring its
  /// own; pair it with a ChromeTraceSink for a browsable fleet timeline.
  telemetry::TraceRecorder* tracer = nullptr;
  /// Attach a registry snapshot to every SweepReport ("telemetry" field).
  bool emit_telemetry = false;
  /// Pending-run bound of the queue; 0 = unbounded (no shedding).
  std::size_t queue_capacity = 0;
  /// Multiplies workers_per_shard (>= 1); every worker pops the one queue.
  std::size_t shards = 1;
};

class ShardCoordinator {
 public:
  explicit ShardCoordinator(CoordinatorConfig config = {});

  /// Stops the coordinator (dropping any backlog) if still running.
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Registers a pool of VMs on one hypervisor; returns the index
  /// SweepSpec::pool_index refers to.  Call before start().
  std::size_t add_pool(const vmm::Hypervisor& hypervisor,
                       std::vector<vmm::DomainId> vms,
                       core::ModCheckerConfig config = {});

  /// Registers a report sink.  Call before start().
  void add_sink(std::shared_ptr<SweepSink> sink);

  /// Observability hook invoked before each module scan of each run
  /// (sweep id, run index, module).  Call before start(); may be invoked
  /// concurrently from several workers.
  void set_module_hook(
      std::function<void(SweepId, std::size_t, const std::string&)> hook);

  /// Spins up the workers.  Sweeps submitted before start() sit in the
  /// queue and run in priority order once workers exist.
  void start();

  /// Enqueues a sweep; returns its id, or 0 if the coordinator is
  /// draining / stopped or admission shed the sweep at the door.
  /// Validates pool_index and modules.
  SweepId submit(SweepSpec spec);

  /// Cancels a sweep: pending runs are struck from the queue, an in-flight
  /// run stops before its next module scan (its report carries cancelled
  /// = true), and recurrences stop.  Returns true if a pending run was
  /// struck; an in-flight run is stopped asynchronously either way.
  bool cancel(SweepId id);

  /// Graceful drain: refuse new submissions, run every queued sweep —
  /// including the remaining runs of finite repeat chains — to
  /// completion, then join the workers.
  void drain();

  /// Fast stop: drop the backlog (releasing the dropped chains' event
  /// state), let in-flight module scans finish, join the workers.
  void stop();

  std::size_t pool_count() const { return engine_.pool_count(); }
  std::size_t pending_sweeps() const { return queue_.pending(); }

  /// Fleet-wide counters (a view over the registry cells).
  // mc-lint: allow(adhoc-stats)
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed_runs = 0;   // runs that finished every module
    std::uint64_t cancelled_runs = 0;   // runs stopped mid-sweep
    std::uint64_t dropped_pending = 0;  // runs struck before starting
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
    /// Always 0: one queue has nothing to steal from.
    std::uint64_t steals = 0;
    /// Recurring ticks dropped by admission (shed at the door or evicted
    /// from a full queue).  Always 0 with an unbounded queue.
    std::uint64_t load_shed = 0;
    /// Unsheddable sweeps admitted past a full queue's capacity.
    std::uint64_t overflow = 0;
  };
  Stats stats() const;

 private:
  void worker_loop();
  /// Admits one run into the queue, stamping its dirty hint and counting
  /// the admission outcome.  An evicted tick's chain ends here.
  AdmitResult admit(QueuedSweep run);
  void join_workers();

  CoordinatorConfig config_;
  SweepEngine engine_;
  SweepQueue queue_;

  telemetry::OwnedCounter submitted_;        // "service.submitted"
  telemetry::OwnedCounter dropped_pending_;  // "service.dropped_pending"
  telemetry::Gauge queue_depth_;             // "service.queue_depth"
  telemetry::Gauge sweeps_in_flight_;        // "service.sweeps_in_flight"
  telemetry::OwnedCounter load_shed_;        // "coordinator.load_shed"
  telemetry::OwnedCounter overflow_;         // "coordinator.overflow"

  std::unique_ptr<ThreadPool> workers_;
  std::vector<std::future<void>> worker_futures_;

  mutable std::mutex mutex_;  // guards next_id_, started_, draining_
  SweepId next_id_ = 1;
  bool started_ = false;
  bool draining_ = false;
};

}  // namespace mc::service
