#include "service/coordinator.hpp"

#include <utility>

#include "util/error.hpp"

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
      load_shed_(engine_.metrics().owned_counter("coordinator.load_shed")),
      overflow_(engine_.metrics().owned_counter("coordinator.overflow")) {
  MC_CHECK(config_.shards >= 1, "coordinator needs at least one shard");
  MC_CHECK(config_.workers_per_shard >= 1,
           "coordinator needs at least one worker per shard");
}

ShardCoordinator::~ShardCoordinator() { stop(); }

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
  const std::size_t workers = config_.shards * config_.workers_per_shard;
  workers_ = std::make_unique<ThreadPool>(workers);
  worker_futures_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    worker_futures_.push_back(workers_->submit([this] { worker_loop(); }));
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
  const AdmitResult result = admit(std::move(run));
  if (result == AdmitResult::kRefused || result == AdmitResult::kShed) {
    return 0;  // draining / stopped, or shed at the door
  }
  submitted_.inc();
  queue_depth_.set(static_cast<std::int64_t>(queue_.pending()));
  return id;
}

AdmitResult ShardCoordinator::admit(QueuedSweep run) {
  // Dirty-prioritization hint, stamped at admission: among equal
  // (priority, due) event-driven runs the queue pops the one whose pool
  // took the most writes first.  Full sweeps score 0 and keep pure FIFO.
  run.dirty_hint = engine_.dirty_score(run);
  std::optional<QueuedSweep> evicted;
  const AdmitResult result =
      queue_.admit(std::move(run), config_.queue_capacity, &evicted);
  if (result == AdmitResult::kAdmittedEvicted ||
      result == AdmitResult::kShed) {
    load_shed_.inc();
  } else if (result == AdmitResult::kOverflow) {
    overflow_.inc();
  }
  if (evicted) {
    engine_.forget(evicted->id);  // the queued tick yielded: its chain ends
  }
  return result;
}

bool ShardCoordinator::cancel(SweepId id) {
  const bool struck = queue_.cancel(id);
  if (struck) {
    dropped_pending_.inc();
    engine_.forget(id);  // the struck run was the chain's only live one
  }
  return struck;
}

void ShardCoordinator::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  // Recurrences are admitted before their run's done(), so an idle queue
  // means every finite chain has finished.
  queue_.wait_idle();
  queue_.close();
  join_workers();
}

void ShardCoordinator::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  queue_.close();  // refuse recurrences first, then drop the backlog
  const std::vector<QueuedSweep> dropped = queue_.clear();
  for (const QueuedSweep& run : dropped) {
    engine_.forget(run.id);  // a dropped follow-up ends its chain
  }
  if (!dropped.empty()) {
    dropped_pending_.inc(dropped.size());
  }
  queue_depth_.set(0);
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

void ShardCoordinator::worker_loop() {
  while (std::optional<QueuedSweep> run = queue_.pop()) {
    queue_depth_.set(static_cast<std::int64_t>(queue_.pending()));
    sweeps_in_flight_.add(1);
    std::optional<QueuedSweep> next = engine_.execute(
        std::move(*run), [this](SweepId id) { return queue_.is_cancelled(id); });
    if (next) {
      const SweepId id = next->id;
      const AdmitResult result = admit(std::move(*next));
      if (result == AdmitResult::kRefused || result == AdmitResult::kShed) {
        engine_.forget(id);  // queue closed or tick shed: the chain ends
      }
    }
    sweeps_in_flight_.add(-1);
    queue_.done();  // after the recurrence admit — see wait_idle()
  }
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
  out.load_shed = load_shed_.value();
  out.overflow = overflow_.value();
  return out;
}

}  // namespace mc::service
