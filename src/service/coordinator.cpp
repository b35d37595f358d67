#include "service/coordinator.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mc::service {

ShardCoordinator::ShardCoordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      engine_(EngineConfig{config_.metrics, config_.tracer,
                           config_.emit_telemetry}),
      submitted_(engine_.metrics().owned_counter("service.submitted")),
      dropped_pending_(
          engine_.metrics().owned_counter("service.dropped_pending")),
      queue_depth_(engine_.metrics().gauge("service.queue_depth")),
      sweeps_in_flight_(engine_.metrics().gauge("service.sweeps_in_flight")),
      ring_(config_.virtual_nodes) {
  MC_CHECK(config_.shards >= 1, "coordinator needs at least one shard");
  MC_CHECK(config_.workers_per_shard >= 1,
           "coordinator needs at least one worker per shard");
  if (config_.chaos.enabled) {
    MC_CHECK(config_.shards >= 2,
             "chaos mode needs at least two shards (survivors inherit the "
             "dead shard's backlog)");
  }
  // The coordinator.* and shard<i>.* names exist only in sharded mode:
  // a classic shards=1 run keeps the historical registry namespace (and
  // with it the emit_telemetry snapshot JSON) byte-identical.
  if (sharded_mode()) {
    telemetry::MetricRegistry& m = engine_.metrics();
    steals_ = m.owned_counter("coordinator.steals");
    load_shed_ = m.owned_counter("coordinator.load_shed");
    overflow_ = m.owned_counter("coordinator.overflow");
    reshards_ = m.owned_counter("coordinator.reshards");
    rescheduled_ = m.owned_counter("coordinator.rescheduled");
    deadline_misses_ = m.owned_counter("coordinator.deadline_misses");
  }
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        s, sharded_mode() ? &engine_.metrics() : nullptr));
    ring_.add_node(s);
  }
}

ShardCoordinator::~ShardCoordinator() { stop(); }

bool ShardCoordinator::sharded_mode() const {
  return config_.shards > 1 || config_.admission.queue_capacity > 0 ||
         config_.chaos.enabled;
}

std::size_t ShardCoordinator::add_pool(const vmm::Hypervisor& hypervisor,
                                       std::vector<vmm::DomainId> vms,
                                       core::ModCheckerConfig config) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MC_CHECK(!started_, "add_pool must be called before start()");
  }
  return engine_.add_pool(hypervisor, std::move(vms), std::move(config));
}

void ShardCoordinator::add_sink(std::shared_ptr<SweepSink> sink) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MC_CHECK(!started_, "add_sink must be called before start()");
  }
  engine_.add_sink(std::move(sink));
}

void ShardCoordinator::set_module_hook(
    std::function<void(SweepId, std::size_t, const std::string&)> hook) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MC_CHECK(!started_, "set_module_hook must be called before start()");
  }
  engine_.set_module_hook(std::move(hook));
}

void ShardCoordinator::start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MC_CHECK(!started_, "ShardCoordinator::start called twice");
    started_ = true;
  }
  engine_.attach_trackers();
  if (config_.chaos.enabled) {
    // Deterministic victim selection: the seed fixes which shard dies, the
    // completion counter (not wall time) fixes when — two runs with the
    // same seed and submissions replay identically.
    Xoshiro256 rng(config_.chaos.seed);
    chaos_victim_ = static_cast<std::size_t>(rng.below(config_.shards));
  }
  // One ThreadPool partition per shard: shard s's workers drain only
  // partition s, so one shard's backlog never starves another's workers.
  workers_ = std::make_unique<ThreadPool>(config_.shards,
                                          config_.workers_per_shard);
  worker_futures_.reserve(config_.shards * config_.workers_per_shard);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    for (std::size_t i = 0; i < config_.workers_per_shard; ++i) {
      worker_futures_.push_back(
          workers_->submit_to(s, [this, s] { worker_loop(s); }));
    }
  }
}

SweepId ShardCoordinator::submit(SweepSpec spec) {
  MC_CHECK(spec.pool_index < engine_.pool_count(),
           "sweep names an unknown pool");
  MC_CHECK(!spec.modules.empty(), "sweep needs at least one module");
  MC_CHECK(spec.repeat >= 1, "sweep repeat count must be at least 1");

  SweepId id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      return 0;  // drain/stop already began — refuse new work
    }
    id = next_id_++;
  }
  QueuedSweep run;
  run.id = id;
  run.spec = std::move(spec);
  run.due = 0;  // first run is due immediately
  run.run_index = 0;
  const AdmitResult result = route(std::move(run));
  if (result == AdmitResult::kRefused || result == AdmitResult::kShed) {
    return 0;  // draining / stopped, or shed at the door
  }
  submitted_.inc();
  queue_depth_.set(static_cast<std::int64_t>(total_pending()));
  return id;
}

AdmitResult ShardCoordinator::route(QueuedSweep run, std::size_t* routed_to) {
  // Dirty-prioritization hint, stamped at routing time: among equal
  // (priority, due) event-driven runs the shard pops the one whose pool
  // took the most writes first.  Full sweeps score 0 and keep pure FIFO.
  run.dirty_hint = engine_.dirty_score(run);
  for (;;) {
    std::size_t target;
    {
      std::lock_guard<std::mutex> ring_lock(ring_mutex_);
      MC_CHECK(!ring_.empty(), "no live shards on the routing ring");
      target = ring_.owner_of_index("pool", run.spec.pool_index);
    }
    Shard& shard = *shards_[target];
    std::optional<QueuedSweep> evicted;
    const AdmitResult result = shard.queue().admit(
        run, config_.admission.queue_capacity, &evicted);
    if (result == AdmitResult::kRefused && shard.dead()) {
      // The shard died between the ring read and the push (its queue
      // closed mid-kill); the ring no longer lists it — re-route to a
      // survivor.  Nothing is lost: the run is still in our hands.
      continue;
    }
    switch (result) {
      case AdmitResult::kAdmittedEvicted:
        // A queued recurring tick yielded its slot; its chain ends here.
        load_shed_.inc();
        shard.record_shed();
        if (evicted) {
          engine_.forget(evicted->id);
        }
        break;
      case AdmitResult::kShed:
        load_shed_.inc();
        shard.record_shed();
        break;
      case AdmitResult::kOverflow:
        overflow_.inc();
        shard.record_overflow();
        break;
      default:
        break;
    }
    if (result != AdmitResult::kRefused && result != AdmitResult::kShed) {
      shard.publish_queue_depth();
      notify_workers();
    }
    if (routed_to != nullptr) {
      *routed_to = target;
    }
    return result;
  }
}

bool ShardCoordinator::cancel(SweepId id) {
  // Every shard's cancelled set learns the id: pending runs are struck
  // wherever they sit, in-flight runs observe is_cancelled_anywhere()
  // between module scans, and recurrences are refused on every queue.
  bool struck = false;
  for (const auto& shard : shards_) {
    struck = shard->queue().cancel(id) || struck;
  }
  if (struck) {
    dropped_pending_.inc();
    engine_.forget(id);  // the struck run was the chain's only live one
  }
  return struck;
}

bool ShardCoordinator::is_cancelled_anywhere(SweepId id) const {
  for (const auto& shard : shards_) {
    if (shard->queue().is_cancelled(id)) {
      return true;
    }
  }
  return false;
}

void ShardCoordinator::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  // Fixpoint over the shards: a recurrence finishing on shard A may route
  // its next run to shard B after B's wait_idle returned, so one pass is
  // not enough — repeat until every queue samples idle after a full pass.
  // Finite repeat chains guarantee termination.
  for (;;) {
    for (const auto& shard : shards_) {
      shard->queue().wait_idle();
    }
    bool all_idle = true;
    for (const auto& shard : shards_) {
      all_idle = all_idle && shard->queue().idle();
    }
    if (all_idle) {
      break;
    }
  }
  for (const auto& shard : shards_) {
    shard->queue().close();
  }
  notify_workers();
  join_workers();
}

void ShardCoordinator::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  std::size_t dropped = 0;
  for (const auto& shard : shards_) {
    shard->queue().close();  // refuse recurrences first, then drop backlog
    dropped += shard->queue().clear();
  }
  if (dropped > 0) {
    dropped_pending_.inc(dropped);
  }
  queue_depth_.set(0);
  notify_workers();
  join_workers();
}

void ShardCoordinator::join_workers() {
  if (!workers_) {
    return;
  }
  for (auto& f : worker_futures_) {
    f.get();  // propagate any worker exception
  }
  worker_futures_.clear();
  workers_.reset();           // joins the threads
  engine_.detach_trackers();  // unsubscribes from each WriteWatch
}

void ShardCoordinator::notify_workers() {
  // Lock-then-notify: a worker between its last try_pop and its wait holds
  // wake_mutex_ for the predicate check, so acquiring it here orders this
  // notification after that check — the wakeup cannot be lost.
  { std::lock_guard<std::mutex> lock(wake_mutex_); }
  wake_cv_.notify_all();
}

std::optional<std::size_t> ShardCoordinator::pick_steal_victim(
    std::size_t thief) const {
  if (!config_.admission.work_stealing || shards_.size() < 2) {
    return std::nullopt;
  }
  const SimNanos front = frontier();
  std::optional<std::size_t> best;
  SimNanos best_due = 0;
  for (const auto& shard : shards_) {
    if (shard->index() == thief || shard->dead()) {
      continue;
    }
    const std::optional<SimNanos> oldest = shard->queue().min_due();
    if (!oldest) {
      continue;
    }
    if (config_.admission.steal_lag > 0 &&
        !(front > *oldest && front - *oldest > config_.admission.steal_lag)) {
      continue;  // the sibling's backlog is not (yet) lagging enough
    }
    if (!best || *oldest < best_due) {
      best = shard->index();
      best_due = *oldest;
    }
  }
  return best;
}

void ShardCoordinator::kill_shard(std::size_t victim) {
  Shard& shard = *shards_[victim];
  {
    // Off the ring first: every route() from here on targets survivors.
    std::lock_guard<std::mutex> ring_lock(ring_mutex_);
    ring_.remove_node(victim);
  }
  shard.kill();           // its workers exit at their next loop iteration
  shard.queue().close();  // a racing push sees kRefused + dead → re-routes
  std::vector<QueuedSweep> orphans = shard.queue().drain_pending();
  reshards_.inc();
  // Re-emit the dead shard's backlog onto the survivors, flagged with its
  // provenance.  No sweep is lost: anything pending moved here, anything
  // in flight finishes on the dying worker, and recurrences route through
  // the already-updated ring.
  for (QueuedSweep& orphan : orphans) {
    orphan.rescheduled_from = victim;
    rescheduled_.inc();
    std::size_t target = kNoShard;
    route(std::move(orphan), &target);
    if (target != kNoShard) {
      shards_[target]->record_rescue();
    }
  }
  shard.publish_queue_depth();
  notify_workers();
}

void ShardCoordinator::worker_loop(std::size_t shard_index) {
  Shard& self = *shards_[shard_index];
  for (;;) {
    if (self.dead()) {
      return;
    }
    std::size_t owner_index = shard_index;
    std::optional<QueuedSweep> run = self.queue().try_pop();
    if (!run) {
      if (const std::optional<std::size_t> victim =
              pick_steal_victim(shard_index)) {
        run = shards_[*victim]->queue().try_pop();
        if (run) {
          owner_index = *victim;
        }
      }
    }
    if (!run) {
      const auto all_drained = [&] {
        for (const auto& shard : shards_) {
          if (!shard->queue().closed() || shard->queue().pending() > 0) {
            return false;
          }
        }
        return true;
      };
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait(lock, [&] {
        return self.dead() || self.queue().pending() > 0 ||
               pick_steal_victim(shard_index).has_value() || all_drained();
      });
      if (self.dead() || all_drained()) {
        return;
      }
      continue;
    }

    Shard& owner = *shards_[owner_index];
    const bool stolen = owner_index != shard_index;
    if (stolen) {
      steals_.inc();
    }
    queue_depth_.set(static_cast<std::int64_t>(total_pending()));
    owner.publish_queue_depth();
    sweeps_in_flight_.add(1);
    // SLO: how far behind the fleet's simulated frontier does this run
    // start?  (The frontier only moves forward, so the lag is a lower
    // bound on how stale the run already is.)
    const SimNanos due = run->due;
    const SimNanos front = frontier();
    if (front > due && front - due > config_.admission.slo_lag) {
      deadline_misses_.inc();
    }
    SweepEngine::ExecuteResult result = engine_.execute(
        std::move(*run),
        [this](SweepId id) { return is_cancelled_anywhere(id); });
    self.record_run(result.wall_time, stolen);
    // frontier = max(frontier, due): CAS loop, relaxed is fine (the value
    // is monotonic and advisory).
    std::uint64_t seen = frontier_.load(std::memory_order_relaxed);
    while (seen < due && !frontier_.compare_exchange_weak(
                             seen, due, std::memory_order_relaxed)) {
    }
    if (result.next) {
      const SweepId id = result.next->id;
      const AdmitResult routed = route(std::move(*result.next));
      if (routed == AdmitResult::kRefused || routed == AdmitResult::kShed) {
        engine_.forget(id);  // queue closed or tick shed: the chain ends
      }
    }
    sweeps_in_flight_.add(-1);
    owner.queue().done();  // after the recurrence route — see wait_idle()

    // Chaos: the victim kills itself after its Nth completed run — a
    // deterministic, replayable point in the schedule.
    if (config_.chaos.enabled && shard_index == chaos_victim_ &&
        !chaos_fired_.load(std::memory_order_relaxed) &&
        self.completed_runs() >= config_.chaos.kill_after_completions) {
      if (!chaos_fired_.exchange(true, std::memory_order_acq_rel)) {
        kill_shard(shard_index);
      }
    }
  }
}

std::size_t ShardCoordinator::total_pending() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->queue().pending();
  }
  return total;
}

std::size_t ShardCoordinator::pending_sweeps() const {
  return total_pending();
}

std::size_t ShardCoordinator::live_shards() const {
  std::size_t live = 0;
  for (const auto& shard : shards_) {
    if (!shard->dead()) {
      ++live;
    }
  }
  return live;
}

std::size_t ShardCoordinator::shard_of(std::size_t pool_index) const {
  std::lock_guard<std::mutex> ring_lock(ring_mutex_);
  MC_CHECK(!ring_.empty(), "no live shards on the routing ring");
  return ring_.owner_of_index("pool", pool_index);
}

ShardCoordinator::Stats ShardCoordinator::stats() const {
  const SweepEngine::RunStats runs = engine_.run_stats();
  Stats out;
  out.submitted = submitted_.value();
  out.completed_runs = runs.completed_runs;
  out.cancelled_runs = runs.cancelled_runs;
  out.dropped_pending = dropped_pending_.value();
  out.quarantine_events = runs.quarantine_events;
  out.exhausted_runs = runs.exhausted_runs;
  out.sweeps_skipped_clean = runs.sweeps_skipped_clean;
  out.event_runs = runs.event_runs;
  out.steals = steals_.value();
  out.load_shed = load_shed_.value();
  out.overflow = overflow_.value();
  out.reshards = reshards_.value();
  out.rescheduled = rescheduled_.value();
  out.deadline_misses = deadline_misses_.value();
  return out;
}

std::vector<ShardStats> ShardCoordinator::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->stats());
  }
  return out;
}

}  // namespace mc::service
