#include "vmm/hypervisor.hpp"

#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace mc::vmm {

namespace {

// Domain lifecycle is process-global state (hypervisors are shared across
// pipelines), so its telemetry lands on the process-default registry.
struct DomainCounters {
  telemetry::Counter created;
  telemetry::Counter cloned;
  telemetry::Counter destroyed;
  telemetry::Counter snapshots;
  telemetry::Counter restores;
  telemetry::Gauge live;
};

const DomainCounters& domain_counters() {
  static const DomainCounters counters = [] {
    telemetry::MetricRegistry& r = telemetry::MetricRegistry::process_default();
    return DomainCounters{r.counter("vmm.domains.created"),
                          r.counter("vmm.domains.cloned"),
                          r.counter("vmm.domains.destroyed"),
                          r.counter("vmm.domains.snapshots"),
                          r.counter("vmm.domains.restores"),
                          r.gauge("vmm.domains.live")};
  }();
  return counters;
}

}  // namespace

DomainSnapshot::DomainSnapshot(DomainId id, const Domain& source)
    : id_(id),
      state_(std::make_unique<Domain>(id, source.name(),
                                      source.memory().size())) {
  state_->copy_state_from(source);
}

Hypervisor::Hypervisor(const HardwareConfig& hardware) : hardware_(hardware) {
  ContentionParams params;
  params.virtual_cores = hardware_.virtual_cores();
  contention_ = ContentionModel(params);
  refresh_busy_load();
}

void Hypervisor::set_contention(const ContentionModel& model) {
  contention_ = model;
  refresh_busy_load();
}

void Hypervisor::set_load_level(DomainId id, double level) {
  Domain& dom = domain(id);
  std::lock_guard<std::mutex> lock(load_mutex_);
  dom.set_load_level(level);
  publish_busy_load_locked();
}

void Hypervisor::refresh_busy_load() {
  std::lock_guard<std::mutex> lock(load_mutex_);
  publish_busy_load_locked();
}

void Hypervisor::publish_busy_load_locked() {
  double total = 0.0;
  for (const auto& [id, dom] : domains_) {
    total += dom.load_level();
  }
  busy_load_.store(total, std::memory_order_relaxed);
  slowdown_.store(contention_.dom0_slowdown(total), std::memory_order_relaxed);
}

DomainId Hypervisor::create_domain(const std::string& name,
                                   std::uint64_t memory_bytes) {
  const DomainId id = next_id_++;
  domains_.emplace(id, Domain(id, name, memory_bytes));
  domain(id).memory().attach_watch(&write_watch_, id);
  refresh_busy_load();
  domain_counters().created.inc();
  domain_counters().live.add(1);
  log_debug("created domain %u (%s), %llu MiB", id, name.c_str(),
            static_cast<unsigned long long>(memory_bytes >> 20));
  return id;
}

DomainId Hypervisor::clone_domain(DomainId source, const std::string& name) {
  const Domain& src = domain(source);
  const DomainId id = create_domain(name, src.memory().size());
  domain(id).copy_state_from(src);
  refresh_busy_load();
  domain_counters().cloned.inc();
  return id;
}

void Hypervisor::destroy_domain(DomainId id) {
  if (domains_.erase(id) == 0) {
    throw NotFoundError("no such domain: " + std::to_string(id));
  }
  write_watch_.drop_domain(id);
  refresh_busy_load();
  domain_counters().destroyed.inc();
  domain_counters().live.add(-1);
}

Domain& Hypervisor::domain(DomainId id) {
  const auto it = domains_.find(id);
  if (it == domains_.end()) {
    throw NotFoundError("no such domain: " + std::to_string(id));
  }
  return it->second;
}

const Domain& Hypervisor::domain(DomainId id) const {
  const auto it = domains_.find(id);
  if (it == domains_.end()) {
    throw NotFoundError("no such domain: " + std::to_string(id));
  }
  return it->second;
}

std::vector<DomainId> Hypervisor::domain_ids() const {
  std::vector<DomainId> ids;
  ids.reserve(domains_.size());
  for (const auto& [id, dom] : domains_) {
    ids.push_back(id);
  }
  return ids;
}

DomainSnapshot Hypervisor::snapshot(DomainId id) const {
  domain_counters().snapshots.inc();
  return DomainSnapshot(id, domain(id));
}

void Hypervisor::restore(const DomainSnapshot& snap) {
  domain(snap.domain_id()).copy_state_from(snap.state());
  refresh_busy_load();
  domain_counters().restores.inc();
}

}  // namespace mc::vmm
