// A guest domain (Xen "DomU").
//
// Owns guest physical memory, the CR3 of the guest kernel's address space,
// and a load level used by the contention model (HeavyLoad sets it to 1.0).
#pragma once

#include <cstdint>
#include <string>

#include "vmm/phys_mem.hpp"

namespace mc::vmm {

using DomainId = std::uint32_t;

class DomainSnapshot;
class Hypervisor;

class Domain {
 public:
  Domain(DomainId id, std::string name, std::uint64_t memory_bytes);

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;
  Domain(Domain&&) = default;
  Domain& operator=(Domain&&) = default;

  DomainId id() const { return id_; }
  const std::string& name() const { return name_; }

  PhysicalMemory& memory() { return memory_; }
  const PhysicalMemory& memory() const { return memory_; }

  /// The guest kernel's page-directory base; 0 until the guest "boots".
  std::uint64_t cr3() const { return cr3_; }
  /// Loads a page directory.  A switch moves no frame but can remap every
  /// page, so it is reported to the WriteWatch as a page-table write.
  void set_cr3(std::uint64_t cr3);

  /// 0.0 = idle, 1.0 = saturating all its vCPUs (HeavyLoad).  Set through
  /// Hypervisor::set_load_level, which keeps the busy-load total current.
  double load_level() const { return load_level_; }

  /// Bulk-state generation: bumped by every copy_state_from (snapshot
  /// restore, clone-into).  Introspection caches keyed on guest layout
  /// (e.g. a VmiSessionPool's V2P caches) compare epochs to detect that a
  /// domain was wholesale replaced underneath them.
  std::uint64_t epoch() const { return epoch_; }

 private:
  // Load changes go through the hypervisor (it caches the busy-load sum).
  friend class DomainSnapshot;
  friend class Hypervisor;

  void set_load_level(double level);

  /// Deep-copies memory/CR3/load from `src` (used by clone & restore).
  void copy_state_from(const Domain& src);

  DomainId id_;
  std::string name_;
  PhysicalMemory memory_;
  std::uint64_t cr3_ = 0;
  double load_level_ = 0.0;
  std::uint64_t epoch_ = 0;
};

}  // namespace mc::vmm
