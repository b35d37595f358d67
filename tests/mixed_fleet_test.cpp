// Mixed-format fleet: one ShardCoordinator sweeping a Windows/PE32 pool and a
// Linux/ELF64 pool concurrently, with format auto-detection doing the
// per-module plugin routing.  Runs under the tsan ctest label — the two
// pools' sweeps interleave on the worker pool, so the format registry and
// both parser paths must be clean under ThreadSanitizer.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "elf/parser.hpp"
#include "guestos/kernel.hpp"
#include "guestos/ko_loader.hpp"
#include "service/coordinator.hpp"

namespace {

using namespace mc;
using namespace mc::service;

std::unique_ptr<cloud::CloudEnvironment> make_pe_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

std::unique_ptr<cloud::LinuxEnvironment> make_elf_env(std::size_t guests) {
  cloud::LinuxCloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::LinuxEnvironment>(cfg);
}

SweepSpec spec(std::string name, std::size_t pool,
               std::vector<std::string> modules, int priority = 0) {
  SweepSpec s;
  s.name = std::move(name);
  s.pool_index = pool;
  s.modules = std::move(modules);
  s.priority = priority;
  return s;
}

/// Patches one .text byte of a loaded .ko in guest memory (the ELF E1
/// analogue, done inline — the attack layer is PE-specific).
void patch_ko_text(cloud::LinuxEnvironment& env, vmm::DomainId vm,
                   const std::string& module) {
  const guestos::LoadedKo* ko = env.loader(vm).find(module);
  ASSERT_NE(ko, nullptr);
  const elf::ElfImage image{ByteView(env.golden_file(module))};
  const elf::Elf64Shdr* text = image.find_section(".text");
  ASSERT_NE(text, nullptr);
  const std::uint32_t va =
      ko->base + static_cast<std::uint32_t>(text->sh_offset) + 5;
  const Bytes patch = {0xCC};
  env.kernel(vm).address_space().write_virtual(va, ByteView(patch));
}

TEST(MixedFleet, CleanPoolsOfBothFormatsDrainSilently) {
  auto pe_env = make_pe_env(4);
  auto elf_env = make_elf_env(4);

  ShardCoordinator fleet({/*workers=*/4});
  const std::size_t pe_pool =
      fleet.add_pool(pe_env->hypervisor(), pe_env->guests());
  const std::size_t elf_pool =
      fleet.add_pool(elf_env->hypervisor(), elf_env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  fleet.start();  // submit after start: workers race the submissions

  const int kSweepsPerPool = 4;
  for (int i = 0; i < kSweepsPerPool; ++i) {
    fleet.submit(spec("pe" + std::to_string(i), pe_pool,
                      {"hal.dll", "ntfs.sys"}, i % 2));
    fleet.submit(spec("elf" + std::to_string(i), elf_pool,
                      {"scsi_mod", "hello"}, i % 2));
  }
  fleet.drain();

  EXPECT_EQ(ring->total_seen(), 2u * kSweepsPerPool);
  EXPECT_EQ(fleet.stats().completed_runs, 2u * kSweepsPerPool);
  for (const auto& report : ring->snapshot()) {
    EXPECT_TRUE(report.findings.empty()) << report.name;
    EXPECT_EQ(report.scans.size(), 2u) << report.name;
    for (const auto& scan : report.scans) {
      for (const auto& verdict : scan.verdicts) {
        EXPECT_TRUE(verdict.clean)
            << report.name << " " << scan.module_name << " vm " << verdict.vm;
      }
    }
  }
}

TEST(MixedFleet, InfectionsLocalizedPerFormatUnderConcurrency) {
  auto pe_env = make_pe_env(5);
  auto elf_env = make_elf_env(5);
  const vmm::DomainId pe_victim = pe_env->guests()[2];
  const vmm::DomainId elf_victim = elf_env->guests()[1];
  attacks::InlineHookAttack{}.apply(*pe_env, pe_victim, "hal.dll");
  patch_ko_text(*elf_env, elf_victim, "scsi_mod");

  ShardCoordinator fleet({/*workers=*/4});
  const std::size_t pe_pool =
      fleet.add_pool(pe_env->hypervisor(), pe_env->guests());
  const std::size_t elf_pool =
      fleet.add_pool(elf_env->hypervisor(), elf_env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  fleet.start();

  const int kSweepsPerPool = 3;
  for (int i = 0; i < kSweepsPerPool; ++i) {
    fleet.submit(spec("pe" + std::to_string(i), pe_pool,
                      {"hal.dll", "ntfs.sys"}));
    fleet.submit(spec("elf" + std::to_string(i), elf_pool,
                      {"scsi_mod", "hello"}));
  }
  fleet.drain();

  const auto reports = ring->snapshot();
  EXPECT_EQ(reports.size(), 2u * kSweepsPerPool);
  for (const auto& report : reports) {
    // Every sweep of either pool flags exactly its own victim on exactly
    // its own infected module — no cross-format bleed-through.
    ASSERT_EQ(report.findings.size(), 1u) << report.name;
    if (report.pool_index == pe_pool) {
      EXPECT_EQ(report.findings[0].module, "hal.dll") << report.name;
      EXPECT_EQ(report.findings[0].vm, pe_victim) << report.name;
    } else {
      EXPECT_EQ(report.findings[0].module, "scsi_mod") << report.name;
      EXPECT_EQ(report.findings[0].vm, elf_victim) << report.name;
    }
  }
}

}  // namespace
