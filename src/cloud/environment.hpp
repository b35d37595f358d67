// The cloud environment: one hypervisor, N identical guests.
//
// Reproduces the paper's testbed (§V-A): a privileged VM (implicit — the
// host process) plus up to 15 DomU guests, each "booted" from the same
// golden driver set.  Per-guest seeds randomize module load bases, so every
// guest holds the same modules at different addresses — Fig. 4's setting.
// Snapshots allow the clean-state revert workflow of §III.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/golden.hpp"
#include "guestos/kernel.hpp"
#include "guestos/module_loader.hpp"
#include "vmm/hypervisor.hpp"

namespace mc::cloud {

struct CloudConfig {
  std::size_t guest_count = 15;
  std::uint64_t base_seed = 42;
  std::uint64_t guest_memory = 64ull << 20;  // enough for kernel + drivers
  vmm::HardwareConfig hardware{};
  std::vector<DriverSpec> catalog = default_catalog();
  std::vector<std::string> load_order = default_load_order();
  /// Optional per-guest OS profile (keyed by guest index 0..count-1);
  /// unlisted guests run the XP SP2 default.  Mixed clouds model staged OS
  /// upgrades — ModChecker pools must then be grouped by version (see
  /// core::group_pool_by_version).
  std::map<std::size_t, const guestos::GuestProfile*> guest_profiles;
};

class CloudEnvironment {
 public:
  explicit CloudEnvironment(CloudConfig config = {});

  vmm::Hypervisor& hypervisor() { return hypervisor_; }
  const vmm::Hypervisor& hypervisor() const { return hypervisor_; }

  const CloudConfig& config() const { return config_; }
  const GoldenImages& golden() const { return golden_; }

  /// Domain ids of all guests, in creation order (Dom1..DomN).
  const std::vector<vmm::DomainId>& guests() const { return guests_; }

  guestos::GuestKernel& kernel(vmm::DomainId id);
  const guestos::GuestKernel& kernel(vmm::DomainId id) const;
  guestos::ModuleLoader& loader(vmm::DomainId id);
  const guestos::ModuleLoader& loader(vmm::DomainId id) const;

  /// Takes clean snapshots of every guest (call right after construction).
  void snapshot_all();

  /// Reverts one guest to its clean snapshot (the paper's §III remediation
  /// path).  Throws if snapshot_all() was never called.
  void revert(vmm::DomainId id);

  /// Marks `count` guests as fully busy (HeavyLoad) starting from Dom1.
  void set_busy_guests(std::size_t count);

  // ---- per-VM virtual disk ---------------------------------------------------
  // Each guest keeps its module files on its own disk (initialized from the
  // golden set).  Disk-first infections rewrite these; the SVV-style and
  // hash-dictionary baselines read them.
  const Bytes& disk_file(vmm::DomainId id, const std::string& name) const;
  bool disk_has(vmm::DomainId id, const std::string& name) const;
  void write_disk_file(vmm::DomainId id, const std::string& name, Bytes data);

 private:
  struct GuestRuntime {
    std::unique_ptr<guestos::GuestKernel> kernel;
    std::unique_ptr<guestos::ModuleLoader> loader;
  };

  CloudConfig config_;
  vmm::Hypervisor hypervisor_;
  GoldenImages golden_;
  std::vector<vmm::DomainId> guests_;
  std::map<vmm::DomainId, GuestRuntime> runtimes_;
  std::map<vmm::DomainId, vmm::DomainSnapshot> snapshots_;
  std::map<vmm::DomainId, std::map<std::string, Bytes>> disks_;
  std::map<vmm::DomainId, std::map<std::string, Bytes>> disk_snapshots_;
};

}  // namespace mc::cloud
