#include "service/engine.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "util/error.hpp"
#include "vmm/write_watch.hpp"

namespace mc::service {

// The fleet's ear on the WriteWatch notification surface.  The skip
// decision itself rests on per-domain write generations (see
// run_event_locked) — the tracker is the observability half: it counts
// distinct domains written and clean->dirty watch edges while the service
// runs, so an operator can see write pressure without any sweep running.
// Callbacks arrive under the WriteWatch lock (possibly from guest-writer
// threads) and only touch the tracker's own state.
class SweepEngine::DirtyTracker : public vmm::WriteWatch::Subscriber {
 public:
  DirtyTracker(vmm::WriteWatch& watch, telemetry::Counter dirty_domains,
               telemetry::Counter watch_notifications)
      : watch_(&watch),
        dirty_domains_(dirty_domains),
        watch_notifications_(watch_notifications) {
    watch_->subscribe(this);
  }

  ~DirtyTracker() override { watch_->unsubscribe(this); }

  void on_domain_write(vmm::DomainId domain) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (seen_.insert(domain).second) {
      dirty_domains_.inc();
    }
  }

  void on_watch_dirty(vmm::DomainId /*domain*/,
                      vmm::WriteWatch::WatchId /*watch*/) override {
    watch_notifications_.inc();
  }

 private:
  vmm::WriteWatch* watch_;
  telemetry::Counter dirty_domains_;
  telemetry::Counter watch_notifications_;
  std::mutex mutex_;
  std::set<vmm::DomainId> seen_;
};

SweepEngine::SweepEngine(EngineConfig config)
    : config_(std::move(config)),
      metrics_(&telemetry::resolve(config_.metrics)),
      completed_runs_(metrics_->owned_counter("service.completed_runs")),
      cancelled_runs_(metrics_->owned_counter("service.cancelled_runs")),
      quarantine_events_(metrics_->owned_counter("service.quarantine_events")),
      exhausted_runs_(metrics_->owned_counter("service.exhausted_runs")),
      sweeps_skipped_clean_(
          metrics_->owned_counter("fleet.sweeps_skipped_clean")),
      event_runs_(metrics_->owned_counter("fleet.event_runs")),
      event_states_gauge_(metrics_->gauge("service.event_states")) {}

SweepEngine::~SweepEngine() = default;

std::size_t SweepEngine::add_pool(const vmm::Hypervisor& hypervisor,
                                  std::vector<vmm::DomainId> vms,
                                  core::ModCheckerConfig config) {
  MC_CHECK(vms.size() >= 2, "a sweep pool needs at least two VMs");
  // Pools inherit the fleet's telemetry wiring unless their config brought
  // its own; trace_pid defaults to pool index + 1 so each pool renders as
  // a separate process row in chrome://tracing.
  if (config.metrics == nullptr) {
    config.metrics = metrics_;
  }
  if (config.tracer == nullptr) {
    config.tracer = config_.tracer;
  }
  if (config.trace_pid == 0) {
    config.trace_pid = pools_.size() + 1;
  }
  auto pool = std::make_unique<Pool>();
  pool->hypervisor = &hypervisor;
  pool->vms = std::move(vms);
  pool->context =
      std::make_unique<core::CheckContext>(hypervisor, std::move(config));
  pool->pipeline = std::make_unique<core::CheckPipeline>(*pool->context);
  pool->cache = std::make_unique<core::ScanCache>(*pool->context);
  pools_.push_back(std::move(pool));
  return pools_.size() - 1;
}

void SweepEngine::add_sink(std::shared_ptr<SweepSink> sink) {
  MC_CHECK(sink != nullptr, "null sink");
  sinks_.push_back(std::move(sink));
}

void SweepEngine::set_module_hook(
    std::function<void(SweepId, std::size_t, const std::string&)> hook) {
  module_hook_ = std::move(hook);
}

void SweepEngine::attach_trackers() {
  // One dirty tracker per distinct hypervisor (pools may share one);
  // subscribed for the service's whole running life, torn down after the
  // workers join so no callback outlives the service.
  std::vector<const vmm::Hypervisor*> tracked;
  for (const auto& pool : pools_) {
    if (std::find(tracked.begin(), tracked.end(), pool->hypervisor) !=
        tracked.end()) {
      continue;
    }
    tracked.push_back(pool->hypervisor);
    trackers_.push_back(std::make_unique<DirtyTracker>(
        pool->hypervisor->write_watch(),
        metrics_->counter("fleet.dirty_domains_observed"),
        metrics_->counter("fleet.watch_notifications")));
  }
}

void SweepEngine::detach_trackers() { trackers_.clear(); }

std::uint64_t SweepEngine::dirty_score(const QueuedSweep& run) const {
  if (!run.spec.event_driven || run.spec.pool_index >= pools_.size()) {
    return 0;
  }
  const Pool& pool = *pools_[run.spec.pool_index];
  vmm::WriteWatch& watch = pool.hypervisor->write_watch();
  // audit: event_mutex_ is held across O(pool) map lookups and watch
  // generation reads only — nothing blocks, and no pool.mutex is taken.
  // mc-lint: allow(lock-order)
  std::lock_guard<std::mutex> ev_lock(event_mutex_);
  const auto state_it = event_states_.find(run.id);
  std::uint64_t score = 0;
  for (const vmm::DomainId vm : pool.vms) {
    const std::uint64_t gen = watch.domain_write_generation(vm);
    if (state_it != event_states_.end() && state_it->second.has_report) {
      const auto g = state_it->second.generations.find(vm);
      if (g != state_it->second.generations.end()) {
        score += gen - std::min(gen, g->second);
        continue;
      }
    }
    score += gen;  // never scanned: every past write counts as pressure
  }
  return score;
}

std::optional<QueuedSweep> SweepEngine::execute(
    QueuedSweep run, const CancelProbe& is_cancelled) {
  Pool& pool = *pools_[run.spec.pool_index];

  telemetry::SpanScope sweep_span =
      telemetry::span(config_.tracer, "sweep", "service",
                      /*process=*/run.spec.pool_index + 1, /*track=*/0);
  sweep_span.arg("name", run.spec.name);
  sweep_span.arg("run", static_cast<std::uint64_t>(run.run_index));

  SweepReport report;
  report.id = run.id;
  report.name = run.spec.name;
  report.pool_index = run.spec.pool_index;
  report.run_index = run.run_index;
  report.due = run.due;

  {
    // One sweep at a time per pool: scans of different pools proceed in
    // parallel, scans of the same pool serialize (shared warm sessions
    // and scan cache).
    std::lock_guard<std::mutex> pool_lock(pool.mutex);
    // audit: holding pool.mutex across the scan body IS the serialization
    // contract — per-pool scans must not interleave; other pools use other
    // mutexes and proceed in parallel.
    if (run.spec.event_driven) {
      // mc-lint: allow(lock-order)
      run_event_locked(pool, run, is_cancelled, report, sweep_span);
    } else {
      // mc-lint: allow(lock-order)
      run_modules_locked(pool, run, is_cancelled, report);
    }
  }
  if (report.cancelled) {
    cancelled_runs_.inc();
  } else {
    completed_runs_.inc();
  }
  quarantine_events_.inc(report.quarantined.size());
  if (report.pool_exhausted) {
    exhausted_runs_.inc();
  }
  sweep_span.arg("findings",
                 static_cast<std::uint64_t>(report.findings.size()));
  if (run.spec.event_driven) {
    sweep_span.arg("skipped_clean",
                   static_cast<std::uint64_t>(report.skipped_clean ? 1 : 0));
  }
  sweep_span.end();  // close before emit so a ChromeTraceSink drains it
  if (config_.emit_telemetry) {
    report.telemetry_json = telemetry::to_json(metrics_->snapshot());
  }
  emit(report);

  // Recurrence: hand the next run on the sweep's simulated cadence back to
  // the caller to queue (the coordinator stamps the dirty hint); the chain
  // ends on cancellation or the last repeat, and with it the sweep's event
  // state.
  if (!report.cancelled && run.run_index + 1 < run.spec.repeat) {
    QueuedSweep next;
    next.id = run.id;
    next.spec = std::move(run.spec);
    next.due = run.due + next.spec.cadence;
    next.run_index = run.run_index + 1;
    return next;
  }
  if (run.spec.event_driven) {
    forget(run.id);
  }
  return std::nullopt;
}

void SweepEngine::forget(SweepId id) {
  std::lock_guard<std::mutex> ev_lock(event_mutex_);
  if (event_states_.erase(id) > 0) {
    event_states_gauge_.add(-1);
  }
}

SweepEngine::EventState& SweepEngine::event_state_locked(SweepId id) {
  const auto [it, inserted] = event_states_.try_emplace(id);
  if (inserted) {
    event_states_gauge_.add(1);
  }
  return it->second;
}

void SweepEngine::run_modules_locked(Pool& pool, const QueuedSweep& run,
                                     const CancelProbe& is_cancelled,
                                     SweepReport& report) {
  core::ScanCache* cache = run.spec.event_driven ? pool.cache.get() : nullptr;
  // VMs quarantined by one module scan sit out the rest of *this run*
  // (re-polling a dead guest per module would just burn retries); the
  // recurrence in execute restarts from the full pool, so a guest that
  // recovers by the next cadence tick rejoins automatically.
  std::vector<vmm::DomainId> active = pool.vms;
  for (const std::string& module : run.spec.modules) {
    if (is_cancelled(run.id)) {
      report.cancelled = true;
      break;
    }
    if (active.size() < 2) {
      // Cross-comparison needs at least two answering VMs.
      report.pool_exhausted = true;
      break;
    }
    if (module_hook_) {
      module_hook_(run.id, run.run_index, module);
    }
    // audit: holding pool.mutex across the scan IS the serialization
    // contract documented in execute — per-pool scans must not
    // interleave (shared warm sessions and cache); other pools use other
    // mutexes and proceed in parallel.
    // mc-lint: allow(lock-order)
    core::PoolScanReport scan =
        pool.pipeline->pool_scan(module, active, cache);
    report.wall_time += scan.wall_time;
    report.cpu_times += scan.cpu_times;
    for (const core::PoolVmVerdict& v : scan.verdicts) {
      if (!v.clean && v.total > 0) {
        report.findings.push_back({module, v.vm, v.successes, v.total});
      }
    }
    for (const vmm::DomainId vm : scan.quarantined) {
      report.quarantined.push_back(vm);
      active.erase(std::remove(active.begin(), active.end(), vm),
                   active.end());
    }
    report.scans.push_back(std::move(scan));
  }
}

void SweepEngine::run_event_locked(Pool& pool, const QueuedSweep& run,
                                   const CancelProbe& is_cancelled,
                                   SweepReport& report,
                                   telemetry::SpanScope& span) {
  vmm::WriteWatch& watch = pool.hypervisor->write_watch();
  // Per-domain write generations, snapshotted BEFORE scanning: a write
  // racing the scan makes the next tick's snapshot differ and forces a
  // re-scan — the race is conservatively safe, never a missed change.
  std::map<vmm::DomainId, std::uint64_t> generations;
  for (const vmm::DomainId vm : pool.vms) {
    generations.emplace(vm, watch.domain_write_generation(vm));
  }

  std::size_t dirty_domains = 0;
  {
    // audit: event_mutex_ nests strictly inside pool.mutex (both call
    // sites in this function), and nothing blocks under it.
    // mc-lint: allow(lock-order)
    std::lock_guard<std::mutex> ev_lock(event_mutex_);
    EventState& state = event_state_locked(run.id);
    if (state.has_report && generations == state.generations) {
      // No write — watched or not — landed on any pool domain since the
      // last completed run, so every extraction, comparison and vote is
      // provably byte-identical: re-emit the previous results unscanned.
      report.scans = state.scans;
      report.findings = state.findings;
      report.skipped_clean = true;
      sweeps_skipped_clean_.inc();
      return;
    }
    for (const auto& [vm, gen] : generations) {
      const auto it = state.generations.find(vm);
      if (!state.has_report || it == state.generations.end() ||
          it->second != gen) {
        ++dirty_domains;
      }
    }
  }
  span.arg("dirty_domains", static_cast<std::uint64_t>(dirty_domains));

  run_modules_locked(pool, run, is_cancelled, report);
  event_runs_.inc();
  if (!report.cancelled) {
    // audit: same strict nesting as above.
    // mc-lint: allow(lock-order)
    std::lock_guard<std::mutex> ev_lock(event_mutex_);
    EventState& state = event_state_locked(run.id);
    // Only an undegraded run proves a clean tick's answer: a quarantined
    // guest can recover without writing to memory.
    state.has_report = report.quarantined.empty();
    state.generations = std::move(generations);
    state.scans = report.scans;
    state.findings = report.findings;
  }
}

void SweepEngine::emit(const SweepReport& report) {
  for (const auto& sink : sinks_) {
    sink->on_sweep(report);
  }
}

SweepEngine::RunStats SweepEngine::run_stats() const {
  RunStats out;
  out.completed_runs = completed_runs_.value();
  out.cancelled_runs = cancelled_runs_.value();
  out.quarantine_events = quarantine_events_.value();
  out.exhausted_runs = exhausted_runs_.value();
  out.sweeps_skipped_clean = sweeps_skipped_clean_.value();
  out.event_runs = event_runs_.value();
  return out;
}

}  // namespace mc::service
