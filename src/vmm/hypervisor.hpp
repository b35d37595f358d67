// The hypervisor: domain lifecycle, cloning, snapshots, contention.
//
// Stands in for Xen 4.1.2 in the paper's testbed.  The privileged Dom0 is
// not modelled as a memory-bearing domain — ModChecker simply runs in the
// host process with read access to guest memory through mc_vmi, mirroring
// how LibVMI maps DomU frames into a Dom0 process.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "vmm/contention.hpp"
#include "vmm/domain.hpp"
#include "vmm/fault_injection.hpp"
#include "vmm/write_watch.hpp"

namespace mc::vmm {

struct HardwareConfig {
  std::uint32_t physical_cores = 4;
  bool hyperthreading = true;   // i7 with HT => 8 virtual cores
  std::uint64_t host_memory = 18ull << 30;  // 18 GB, as in §V-A

  std::uint32_t virtual_cores() const {
    return physical_cores * (hyperthreading ? 2 : 1);
  }
};

/// A point-in-time copy of one domain (paper §III: "it is possible to keep
/// clean snapshots of VMs and ... the machine(s) can be reverted back").
class DomainSnapshot {
 public:
  DomainSnapshot(DomainId id, const Domain& source);

  DomainId domain_id() const { return id_; }
  const Domain& state() const { return *state_; }

 private:
  DomainId id_;
  std::unique_ptr<Domain> state_;
};

class Hypervisor {
 public:
  explicit Hypervisor(const HardwareConfig& hardware = {});

  const HardwareConfig& hardware() const { return hardware_; }
  const ContentionModel& contention() const { return contention_; }
  void set_contention(const ContentionModel& model);

  /// Creates a fresh (empty-memory) domain; ids start at 1 ("Dom1").
  DomainId create_domain(const std::string& name, std::uint64_t memory_bytes);

  /// Clones an existing domain's full state into a new domain (how the
  /// paper instantiated 15 identical XP guests from one installation).
  DomainId clone_domain(DomainId source, const std::string& name);

  void destroy_domain(DomainId id);

  Domain& domain(DomainId id);
  const Domain& domain(DomainId id) const;
  bool has_domain(DomainId id) const { return domains_.count(id) != 0; }

  /// All live domain ids, ascending.
  std::vector<DomainId> domain_ids() const;
  std::size_t domain_count() const { return domains_.size(); }

  /// Sets one domain's load level (0.0 idle .. 1.0 HeavyLoad; throws
  /// InvalidArgument outside that range).  Every load change goes through
  /// the hypervisor so the busy-load total below never goes stale.
  void set_load_level(DomainId id, double level);

  /// Aggregate guest busy load (input to the contention model).  Kept up
  /// to date by every call that can change a load (set_load_level,
  /// create/clone/destroy, restore), so reading it is one atomic load.
  double total_busy_load() const {
    return busy_load_.load(std::memory_order_relaxed);
  }

  /// Slowdown Dom0 work currently experiences.  Every VMI charge reads it,
  /// so it is cached next to the total: one atomic load, no domain walk.
  double dom0_slowdown() const {
    return slowdown_.load(std::memory_order_relaxed);
  }

  DomainSnapshot snapshot(DomainId id) const;
  void restore(const DomainSnapshot& snap);

  /// Deterministic per-domain guest-fault injection (see
  /// fault_injection.hpp).  Mutable through a const hypervisor: the VMI
  /// layer holds `const Hypervisor*` (read-only guest access) but the
  /// injector must count reads and advance its RNG streams — observation
  /// bookkeeping, not domain state.
  FaultInjector& fault_injector() const { return fault_injector_; }

  /// The hypervisor's log-dirty facility (see write_watch.hpp).  Mutable
  /// through a const hypervisor for the same reason as the fault injector:
  /// the scan layers hold `const Hypervisor*` (read-only guest access) but
  /// registering/draining watches is observation bookkeeping, not domain
  /// state.
  WriteWatch& write_watch() const { return write_watch_; }

 private:
  /// Re-sums the domains' loads in id order (the same additions, in the
  /// same order, as a walk at query time, so the double is bit-identical)
  /// and republishes the total and the slowdown.  The _locked variant
  /// expects load_mutex_ held.
  void refresh_busy_load();
  void publish_busy_load_locked();

  HardwareConfig hardware_;
  ContentionModel contention_;
  DomainId next_id_ = 1;
  std::map<DomainId, Domain> domains_;
  /// Guards load writes and the re-sum; readers only load the atomics.
  std::mutex load_mutex_;
  std::atomic<double> busy_load_{0.0};
  std::atomic<double> slowdown_{1.0};
  mutable FaultInjector fault_injector_;
  mutable WriteWatch write_watch_;
};

}  // namespace mc::vmm
