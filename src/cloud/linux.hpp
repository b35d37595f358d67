// Linux-guest cloud environment: one hypervisor, N identical Linux VMs.
//
// The ELF counterpart of environment.hpp's Windows testbed: every guest
// boots the linux26 profile and insmods the same golden .ko set; per-guest
// seeds randomize module bases, so identical modules differ only in their
// loader-patched absolute addresses — the divergence the ELF64 fixup
// policy normalizes.  Used by the cross-format tests and the mixed-fleet
// scenario (one ShardCoordinator scanning a Windows pool and a Linux pool).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "guestos/kernel.hpp"
#include "guestos/ko_loader.hpp"
#include "vmm/hypervisor.hpp"

namespace mc::cloud {

/// Shape of one synthetic kernel module (.ko).  Deterministic: same spec,
/// same bytes.
struct KoSpec {
  std::string name;        // "nf_conntrack.ko"
  std::uint64_t seed = 1;  // drives the synthetic section contents

  std::uint32_t text_bytes = 0x1200;
  std::uint32_t rodata_bytes = 0x0400;
  std::uint32_t data_bytes = 0x0300;  // writable — excluded from checking

  /// Absolute-address slots the loader patches into .text.
  std::uint32_t abs64_fixups = 12;  // R_X86_64_64
  std::uint32_t abs32s_fixups = 6;  // R_X86_64_32S
  /// PC-relative slots (R_X86_64_PC32, call/jmp rel32 style).  The base
  /// cancels out of S + A - P, so these stay byte-identical across load
  /// bases and need no normalization pass.
  std::uint32_t pc32_fixups = 4;
};

/// The default module population, in load order.
std::vector<KoSpec> default_ko_catalog();
std::vector<std::string> default_ko_load_order();

/// Builds one golden .ko image from its spec (mapped layout; see
/// elf::KoBuilder).
Bytes build_ko_image(const KoSpec& spec);

struct LinuxCloudConfig {
  std::size_t guest_count = 15;
  std::uint64_t base_seed = 43;
  std::uint64_t guest_memory = 64ull << 20;
  vmm::HardwareConfig hardware{};
  std::vector<KoSpec> catalog = default_ko_catalog();
  std::vector<std::string> load_order = default_ko_load_order();
};

class LinuxEnvironment {
 public:
  explicit LinuxEnvironment(LinuxCloudConfig config = {});

  vmm::Hypervisor& hypervisor() { return hypervisor_; }
  const vmm::Hypervisor& hypervisor() const { return hypervisor_; }

  const LinuxCloudConfig& config() const { return config_; }

  /// Golden .ko file for a catalog module.
  const Bytes& golden_file(const std::string& name) const;

  /// Domain ids of all guests, in creation order (Dom1..DomN).
  const std::vector<vmm::DomainId>& guests() const { return guests_; }

  guestos::GuestKernel& kernel(vmm::DomainId id);
  guestos::KoLoader& loader(vmm::DomainId id);

 private:
  struct GuestRuntime {
    std::unique_ptr<guestos::GuestKernel> kernel;
    std::unique_ptr<guestos::KoLoader> loader;
  };

  LinuxCloudConfig config_;
  vmm::Hypervisor hypervisor_;
  std::map<std::string, Bytes> golden_;
  std::vector<vmm::DomainId> guests_;
  std::map<vmm::DomainId, GuestRuntime> runtimes_;
};

}  // namespace mc::cloud
