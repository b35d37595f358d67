#include "vmi/session_pool.hpp"

namespace mc::vmi {

VmiSessionPool::VmiSessionPool(const vmm::Hypervisor& hypervisor,
                               const VmiCostModel& costs,
                               telemetry::MetricRegistry* metrics)
    : hypervisor_(&hypervisor),
      costs_(costs),
      metrics_(&telemetry::resolve(metrics)),
      created_(metrics_->owned_counter("vmi.pool.created")),
      reused_(metrics_->owned_counter("vmi.pool.reused")),
      invalidated_(metrics_->owned_counter("vmi.pool.invalidated")) {}

VmiSessionPool::Lease VmiSessionPool::acquire(vmm::DomainId domain,
                                              SimClock& clock) {
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> map_lock(map_mutex_);
    auto& slot = entries_[domain];
    if (!slot) {
      slot = std::make_unique<Entry>();
    }
    entry = slot.get();
  }
  // Per-domain lock taken after the map lock is released: acquires of
  // different domains never serialize on each other.
  std::unique_lock<std::mutex> lock(entry->mutex);

  const vmm::Domain& dom = hypervisor_->domain(domain);
  const bool stale = entry->session && (entry->epoch != dom.epoch() ||
                                        entry->cr3 != dom.cr3());
  if (stale) {
    entry->session.reset();
    invalidated_.inc();
  }
  if (entry->session) {
    entry->session->rebind_clock(clock);
    entry->session->revalidate_translations();
    entry->session->note_reuse();
    reused_.inc();
  } else {
    entry->session = std::make_unique<VmiSession>(*hypervisor_, domain, clock,
                                                  costs_, metrics_);
    entry->epoch = dom.epoch();
    entry->cr3 = dom.cr3();
    created_.inc();
  }
  return Lease(std::move(lock), entry->session.get());
}

SessionPoolStats VmiSessionPool::stats() const {
  SessionPoolStats snap;
  snap.created = created_.value();
  snap.reused = reused_.value();
  snap.invalidated = invalidated_.value();
  return snap;
}

}  // namespace mc::vmi
