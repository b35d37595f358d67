// SweepQueue — the fleet's one thread-safe priority queue of pending sweeps.
//
// Ordering: highest priority first; within a priority class, earliest
// simulated due time; within a due tie, dirtiest first (the coordinator
// stamps event-driven runs with their pools' write-generation delta so a
// written-to pool is scanned before provably-quiet ones — detection
// latency follows the writes); ties broken by submission order, so
// equal-priority sweeps run FIFO.  pop() blocks until an item is available
// or the queue is closed *and* empty — close() is the graceful-drain
// primitive: pushes are refused afterwards, but everything already queued
// is still handed out, so workers drain the backlog before seeing the
// nullopt that stops their loop.  clear() is the fast-stop primitive: it
// drops the backlog and hands the dropped runs back to the caller.
//
// Admission.  admit() is the capacity-bounded push the coordinator routes
// every run through.  A production checker fleet is permanently
// oversubscribed: recurring monitors are cheap to submit and expensive to
// run, so without a bound the queue — and every sweep's queue age — grows
// without limit.  The decision table:
//
//   * under capacity          → admit;
//   * full, incoming matters  → evict the lowest-priority recurring tick
//                               (never a one-shot or alerted sweep) and
//                               admit in its place;
//   * full, incoming is the   → shed the incoming tick itself (its
//     cheapest thing queued     recurrence chain ends; the shed counter is
//                               the operator's saturation signal);
//   * full of unsheddable     → admit anyway and count the overflow —
//     work                      one-shot and alerted sweeps are NEVER
//                               dropped, the bound bends instead.
//
// Shedding a recurring tick drops the remainder of its chain: recurrences
// are pushed on completion of the previous run, so an evicted run has no
// successor.  A saturated fleet stops servicing its cheapest monitors
// first and says so, instead of stretching every sweep's latency.
//
// Cancellation of *pending* runs is queue-side (cancel(id) strikes the
// id's pending runs and refuses its later pushes).  Cancellation of a sweep
// already handed to a worker is the coordinator's job — the queue cannot
// reach in-flight work.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/sim_clock.hpp"

namespace mc::service {

/// Stable identifier of one submitted sweep (all its recurrences share it).
using SweepId = std::uint64_t;

/// What to sweep: a module set on one registered pool, how urgently, and
/// how often.
struct SweepSpec {
  std::string name;                  // operator-facing label
  std::size_t pool_index = 0;        // add_pool return value
  std::vector<std::string> modules;  // scanned in order, one pool scan each
  int priority = 0;                  // higher runs first
  /// Total runs (>= 1).  Runs after the first are re-enqueued on
  /// completion with due += cadence — a recurring sweep on the service's
  /// simulated timeline.
  std::size_t repeat = 1;
  SimNanos cadence = 0;
  /// Event-driven scheduling: runs consult the hypervisor's WriteWatch at
  /// each cadence tick — a tick on which nothing was written to any pool
  /// domain re-emits the previous run's (provably unchanged) verdicts
  /// without scanning (SweepReport::skipped_clean), and dirty ticks go
  /// through the pool's IncrementalScanner so clean domains cost an O(1)
  /// watch query and dirty modules re-read only their dirty pages.
  /// Event-driven sweeps assume the non-faulting path (no quarantine
  /// machinery); pools with fault injection should use full sweeps.
  bool event_driven = false;
  /// Alerted sweeps (e.g. a watch-driven off-cadence scan of a pool that
  /// just took writes) are exempt from load shedding even when recurring.
  bool alerted = false;

  /// Load-shedding class: only non-alerted recurring ticks may be shed.
  bool sheddable() const { return repeat > 1 && !alerted; }
};

/// One scheduled run of a sweep.
struct QueuedSweep {
  SweepId id = 0;
  SweepSpec spec;
  SimNanos due = 0;           // simulated due time of this run
  std::size_t run_index = 0;  // 0-based recurrence counter
  std::uint64_t seq = 0;      // FIFO tiebreak, assigned by push()
  /// Pool write-generation delta stamped by the coordinator at push time;
  /// orders equal-(priority, due) runs dirtiest-first.  0 for full sweeps.
  std::uint64_t dirty_hint = 0;
};

/// Outcome of one admission decision (SweepQueue::admit).
enum class AdmitResult {
  kAdmitted,         // queued, under capacity
  kAdmittedEvicted,  // queued; a lower-priority recurring tick was shed
  kOverflow,         // queued past capacity (unsheddable backlog)
  kShed,             // the incoming recurring tick itself was shed
  kRefused,          // queue closed or sweep cancelled (classic push refusal)
};

class SweepQueue {
 public:
  /// Enqueues a run.  Returns false (and drops the sweep) once the queue
  /// is closed — a recurring sweep re-enqueued after drain() simply ends.
  bool push(QueuedSweep sweep);

  /// Capacity-bounded push implementing the admission table above: under
  /// `capacity` (0 = unbounded) behaves like push(); at capacity the
  /// lowest-priority recurring tick yields.  When a queued tick is evicted
  /// to make room it is returned through `evicted` (for the caller's shed
  /// accounting).
  AdmitResult admit(QueuedSweep sweep, std::size_t capacity,
                    std::optional<QueuedSweep>* evicted = nullptr);

  /// Blocks until a run is available or the queue is closed and empty
  /// (nullopt → the worker loop should exit).
  std::optional<QueuedSweep> pop();

  /// Marks every pending (and future re-enqueued) run of `id` cancelled.
  /// Returns true if at least one pending run was struck.
  bool cancel(SweepId id);

  /// True once cancel(id) was called — the single source of truth workers
  /// consult between module scans to stop an in-flight sweep.
  bool is_cancelled(SweepId id) const;

  /// Marks the run handed out by the matching pop() finished.  Workers
  /// must call this after executing the run (and after any recurrence
  /// push) so wait_idle() can tell "empty because drained" from "empty
  /// because every pending run is currently executing".
  void done();

  /// Blocks until the queue is empty *and* no popped run is still
  /// executing — the graceful-drain barrier.  Recurrences pushed by
  /// in-flight runs extend the wait; a finite repeat chain therefore
  /// completes before wait_idle returns.
  void wait_idle();

  /// Refuses further pushes; pop() drains the backlog then returns
  /// nullopt to every waiter.
  void close();

  /// Drops every pending run and returns them, so the caller can release
  /// whatever state their chains held.  Does not close the queue.
  std::vector<QueuedSweep> clear();

  std::size_t pending() const;

 private:
  struct Order {
    /// "less" for a max-heap: true when `a` runs after `b`.
    bool operator()(const QueuedSweep& a, const QueuedSweep& b) const {
      if (a.spec.priority != b.spec.priority) {
        return a.spec.priority < b.spec.priority;  // max-heap on priority
      }
      if (a.due != b.due) {
        return a.due > b.due;  // then earliest due
      }
      if (a.dirty_hint != b.dirty_hint) {
        return a.dirty_hint < b.dirty_hint;  // then dirtiest first
      }
      return a.seq > b.seq;  // then FIFO
    }
  };

  bool push_locked(QueuedSweep&& sweep);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Heap over Order (std::push_heap/pop_heap); a plain vector so
  /// cancel/evict can walk the pending set in place.
  std::vector<QueuedSweep> heap_;
  std::unordered_set<SweepId> cancelled_;
  std::uint64_t next_seq_ = 0;
  std::size_t active_ = 0;  // runs popped but not yet done()
  bool closed_ = false;
};

}  // namespace mc::service
