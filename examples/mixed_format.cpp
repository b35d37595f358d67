// Mixed-format fleet — one service monitoring Windows and Linux pools.
//
// The paper evaluates Windows XP guests, but nothing in its design is
// PE-specific: decomposition (Algorithm 1) and pairwise relocation
// normalization (Algorithm 2) only need a format that can enumerate its
// integrity-relevant pieces and describe its loader's fixup widths.
// The format-plugin registry (src/modchecker/format.hpp) captures exactly
// that seam, so one ShardCoordinator can sweep a PE32/Windows pool and an
// ELF64/Linux pool side by side — each module auto-detected from its
// image header, no per-pool configuration.
//
//   1. stand up a Windows-like pool (PE32 drivers) and a Linux-like pool
//      (.ko modules with R_X86_64_64 / R_X86_64_32S fixups),
//   2. infect one guest in each with a one-byte .text patch,
//   3. submit sweeps for both pools to one fleet and drain,
//   4. expect exactly the two planted findings — and nothing else.
//
// Build & run:  ./build/examples/mixed_format
#include <cstdio>
#include <memory>

#include "attacks/opcode_replace.hpp"
#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "elf/parser.hpp"
#include "guestos/kernel.hpp"
#include "guestos/ko_loader.hpp"
#include "service/coordinator.hpp"

int main() {
  using namespace mc;

  // 1. Two pools, two guest OSes, two module formats.
  cloud::CloudConfig pe_config;
  pe_config.guest_count = 5;
  cloud::CloudEnvironment pe_env(pe_config);

  cloud::LinuxCloudConfig elf_config;
  elf_config.guest_count = 5;
  cloud::LinuxEnvironment elf_env(elf_config);

  // 2. One infection per pool.  The PE side reuses the attack toolkit;
  // the ELF side patches a .text byte of the resident scsi_mod copy
  // through guest virtual memory, the same E1 shape.
  const vmm::DomainId pe_victim = pe_env.guests()[3];
  attacks::OpcodeReplaceAttack{}.apply(pe_env, pe_victim, "hal.dll");

  const vmm::DomainId elf_victim = elf_env.guests()[1];
  {
    const guestos::LoadedKo* ko = elf_env.loader(elf_victim).find("scsi_mod");
    const elf::ElfImage image{ByteView(elf_env.golden_file("scsi_mod"))};
    const elf::Elf64Shdr* text = image.find_section(".text");
    const std::uint32_t va =
        ko->base + static_cast<std::uint32_t>(text->sh_offset) + 7;
    const Bytes patch = {0xCC};
    elf_env.kernel(elf_victim).address_space().write_virtual(va,
                                                            ByteView(patch));
  }

  // 3. One fleet, both pools.  Format detection is per module image, so
  // the service needs no telling which pool speaks which format.
  service::ShardCoordinator fleet({/*workers=*/2});
  const std::size_t pe_pool =
      fleet.add_pool(pe_env.hypervisor(), pe_env.guests());
  const std::size_t elf_pool =
      fleet.add_pool(elf_env.hypervisor(), elf_env.guests());
  auto ring = std::make_shared<service::RingSink>();
  fleet.add_sink(ring);

  service::SweepSpec pe_sweep;
  pe_sweep.name = "windows-drivers";
  pe_sweep.pool_index = pe_pool;
  pe_sweep.modules = {"hal.dll", "ntfs.sys"};
  fleet.submit(pe_sweep);

  service::SweepSpec elf_sweep;
  elf_sweep.name = "linux-modules";
  elf_sweep.pool_index = elf_pool;
  elf_sweep.modules = {"scsi_mod", "ext3", "hello"};
  fleet.submit(elf_sweep);

  fleet.start();
  fleet.drain();

  // 4. Exactly the two planted infections, each attributed to its own
  // pool, module and guest.
  std::size_t hits = 0;
  std::size_t misattributed = 0;
  for (const auto& report : ring->snapshot()) {
    std::printf("[%s] %zu module scan(s), %zu finding(s)\n",
                report.name.c_str(), report.scans.size(),
                report.findings.size());
    for (const auto& finding : report.findings) {
      std::printf("  ALERT %s on Dom%u\n", finding.module.c_str(),
                  finding.vm);
      const bool expected =
          (report.pool_index == pe_pool && finding.module == "hal.dll" &&
           finding.vm == pe_victim) ||
          (report.pool_index == elf_pool && finding.module == "scsi_mod" &&
           finding.vm == elf_victim);
      ++(expected ? hits : misattributed);
    }
  }

  std::printf("\n%zu expected finding(s), %zu stray — want 2 and 0\n", hits,
              misattributed);
  return (hits == 2 && misattributed == 0) ? 0 : 1;
}
