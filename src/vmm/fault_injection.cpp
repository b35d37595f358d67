#include "vmm/fault_injection.hpp"

namespace mc::vmm {

void FaultInjector::arm(DomainId domain, const FaultProfile& profile) {
  std::lock_guard<std::mutex> lock(mutex_);
  states_.erase(domain);
  states_.emplace(domain, State(profile));
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::disarm(DomainId domain) {
  std::lock_guard<std::mutex> lock(mutex_);
  states_.erase(domain);
  // armed_ stays true while any profile remains; an empty map keeps the
  // gate open until disarm_all so per-domain disarm stays cheap — the
  // per-call lookup below simply misses.
  if (states_.empty()) {
    armed_.store(false, std::memory_order_relaxed);
  }
}

void FaultInjector::disarm_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  states_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::should_fault_read(DomainId domain) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = states_.find(domain);
  if (it == states_.end()) {
    return false;
  }
  State& s = it->second;
  ++s.reads;
  ++stats_.reads_observed;
  bool fault = false;
  if (s.profile.fail_first_reads != 0 &&
      s.reads <= s.profile.fail_first_reads) {
    fault = true;
  } else if (s.profile.fail_after_reads != 0 &&
             s.reads > s.profile.fail_after_reads) {
    fault = true;
  } else if (s.profile.fail_read_at != 0 && s.reads == s.profile.fail_read_at) {
    fault = true;
  } else if (s.profile.read_fault_rate > 0.0 &&
             s.rng.chance(s.profile.read_fault_rate)) {
    fault = true;
  }
  if (fault) {
    ++stats_.injected_read_faults;
  }
  return fault;
}

bool FaultInjector::should_fault_translation(DomainId domain) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = states_.find(domain);
  if (it == states_.end()) {
    return false;
  }
  State& s = it->second;
  const bool fault = s.profile.translation_fault_rate > 0.0 &&
                     s.rng.chance(s.profile.translation_fault_rate);
  if (fault) {
    ++stats_.injected_translation_faults;
  }
  return fault;
}

FaultInjector::Stats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace mc::vmm
