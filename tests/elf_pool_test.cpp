// ELF64 pool scanning end to end: clean Linux pools at every paper pool
// size vote unanimously clean with every pair on the canonical fast path,
// the fast and faithful configurations stay verdict-identical, and the
// E1-E4 attack analogues — .text byte patch, fixup-pointer redirection,
// .rela table tampering, header corruption, DKOM-style module hiding —
// are detected and localized to the tampered VM.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloud/linux.hpp"
#include "elf/parser.hpp"
#include "guestos/kernel.hpp"
#include "guestos/ko_loader.hpp"
#include "guestos/profile.hpp"
#include "modchecker/audit.hpp"
#include "modchecker/modchecker.hpp"
#include "util/fault.hpp"

namespace {

using namespace mc;
using namespace mc::core;

std::unique_ptr<cloud::LinuxEnvironment> make_env(std::size_t guests) {
  cloud::LinuxCloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::LinuxEnvironment>(cfg);
}

ModCheckerConfig fast_config() {
  return ModCheckerConfig{};  // fast path, memo and session reuse default on
}

ModCheckerConfig faithful_config() {
  ModCheckerConfig cfg;
  cfg.paper_faithful = true;
  return cfg;
}

void expect_same_verdicts(const PoolScanReport& a, const PoolScanReport& b) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i].vm, b.verdicts[i].vm);
    EXPECT_EQ(a.verdicts[i].successes, b.verdicts[i].successes)
        << "vm " << a.verdicts[i].vm;
    EXPECT_EQ(a.verdicts[i].total, b.verdicts[i].total);
    EXPECT_EQ(a.verdicts[i].clean, b.verdicts[i].clean)
        << "vm " << a.verdicts[i].vm;
  }
}

/// Scans with both configs (format auto-detected from the ELF magic) and
/// requires identical verdicts; returns the fast report.
PoolScanReport scan_both_ways(cloud::LinuxEnvironment& env,
                              const std::string& module) {
  ModChecker fast(env.hypervisor(), fast_config());
  ModChecker faithful(env.hypervisor(), faithful_config());
  const auto a = fast.scan_pool(module, env.guests());
  const auto b = faithful.scan_pool(module, env.guests());
  expect_same_verdicts(a, b);
  EXPECT_EQ(b.fastpath_pairs, 0u);
  return a;
}

/// Guest VA of `section` inside the module's mapped image on one guest
/// (the synthetic .ko layout has sh_addr == sh_offset).
std::uint32_t section_va(cloud::LinuxEnvironment& env, vmm::DomainId vm,
                         const std::string& module,
                         const std::string& section) {
  const guestos::LoadedKo* ko = env.loader(vm).find(module);
  EXPECT_NE(ko, nullptr);
  const elf::ElfImage image{ByteView(env.golden_file(module))};
  const elf::Elf64Shdr* sh = image.find_section(section);
  EXPECT_NE(sh, nullptr);
  return ko->base + static_cast<std::uint32_t>(sh->sh_offset);
}

std::size_t dirty_count(const PoolScanReport& report, vmm::DomainId expect_vm) {
  std::size_t dirty = 0;
  for (const auto& v : report.verdicts) {
    if (!v.clean) {
      ++dirty;
      EXPECT_EQ(v.vm, expect_vm);
    }
  }
  return dirty;
}

// ---- clean pools --------------------------------------------------------------

class CleanLinuxPool : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CleanLinuxPool, UnanimousAndEveryPairFast) {
  auto env = make_env(GetParam());
  const std::size_t t = GetParam();
  for (const std::string module : {"hello", "scsi_mod"}) {
    const auto report = scan_both_ways(*env, module);
    EXPECT_EQ(report.fastpath_pairs, t * (t - 1) / 2) << module;
    EXPECT_EQ(report.fallback_pairs, 0u) << module;
    for (const auto& verdict : report.verdicts) {
      EXPECT_TRUE(verdict.clean) << module << " vm " << verdict.vm;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, CleanLinuxPool,
                         ::testing::Values(2, 3, 5, 8, 15));

TEST(CleanLinuxPool, FullCatalogSweepAtFifteen) {
  auto env = make_env(15);
  ModChecker checker(env->hypervisor(), fast_config());
  for (const std::string& module : cloud::default_ko_load_order()) {
    const auto report = checker.scan_pool(module, env->guests());
    EXPECT_EQ(report.fastpath_pairs, 15u * 14u / 2u) << module;
    for (const auto& verdict : report.verdicts) {
      EXPECT_TRUE(verdict.clean) << module << " vm " << verdict.vm;
    }
  }
}

// ---- E1 analogue: code byte patch ---------------------------------------------

TEST(ElfAttacks, TextBytePatchIsLocalized) {
  auto env = make_env(6);
  const vmm::DomainId victim = env->guests()[2];
  // Offset 3 sits before the first fixup slot (slots start at one stride
  // >= 16), so this is a pure content change, not a relocation.
  const std::uint32_t va = section_va(*env, victim, "scsi_mod", ".text") + 3;
  const Bytes patch = {0xCC};
  env->kernel(victim).address_space().write_virtual(va, ByteView(patch));

  const auto report = scan_both_ways(*env, "scsi_mod");
  EXPECT_EQ(dirty_count(report, victim), 1u);
  // The patched copy cannot reduce to the clean canonical: its 5 pairs
  // (and only those) run the exact pairwise fallback.
  EXPECT_EQ(report.fallback_pairs, 5u);
  EXPECT_EQ(report.fastpath_pairs, 10u);
}

TEST(ElfAttacks, TextBytePatchOnReferenceIsLocalized) {
  // The same patch on the first VM, the one every copy is first normalized
  // against: no clean copy reduces against it, so the reference is
  // re-elected and still only the victim's 5 pairs fall back.
  auto env = make_env(6);
  const vmm::DomainId victim = env->guests()[0];
  const std::uint32_t va = section_va(*env, victim, "scsi_mod", ".text") + 3;
  const Bytes patch = {0xCC};
  env->kernel(victim).address_space().write_virtual(va, ByteView(patch));

  const auto report = scan_both_ways(*env, "scsi_mod");
  EXPECT_EQ(dirty_count(report, victim), 1u);
  EXPECT_EQ(report.fallback_pairs, 5u);
  EXPECT_EQ(report.fastpath_pairs, 10u);
}

// ---- E2 analogue: fixup pointer redirected ------------------------------------

TEST(ElfAttacks, RedirectedFixupPointerIsNotNormalizedAway) {
  auto env = make_env(7);
  const vmm::DomainId victim = env->guests()[4];
  // First R_X86_64_64 slot of nf_conntrack: stride =
  // max(16, 0x1400/19) & ~7 = 264, slot 0 at .text+264.  Shift the stored
  // kernel pointer by 0x40: the slot still looks like a plausible biased
  // address, but its RVA no longer agrees with any peer's, so Algorithm 2
  // must refuse to normalize it (the evasion-resistance property).
  const std::uint32_t va = section_va(*env, victim, "nf_conntrack", ".text") +
                           264;
  Bytes slot(8, 0);
  env->kernel(victim).address_space().read_virtual(va, MutableByteView(slot));
  store_le64(MutableByteView(slot), 0, load_le64(ByteView(slot), 0) + 0x40);
  env->kernel(victim).address_space().write_virtual(va, ByteView(slot));

  const auto report = scan_both_ways(*env, "nf_conntrack");
  EXPECT_EQ(dirty_count(report, victim), 1u);
}

// ---- E3 analogue: relocation-table tampering ----------------------------------

TEST(ElfAttacks, RelaTableTamperFlagsTheResidentTable) {
  auto env = make_env(5);
  const vmm::DomainId victim = env->guests()[1];
  // .rela.text is SHF_ALLOC and read-only — a resident integrity-checked
  // item whose content is base-independent.  Corrupting one record's
  // addend byte must flag the VM on plain digest inequality, with every
  // pair still on the fast path (the item is not rva-sensitive).
  const std::uint32_t va =
      section_va(*env, victim, "ext3", ".rela.text") + 16;  // r_addend byte 0
  const Bytes tamper = {0x7F};
  env->kernel(victim).address_space().write_virtual(va, ByteView(tamper));

  const auto report = scan_both_ways(*env, "ext3");
  EXPECT_EQ(dirty_count(report, victim), 1u);
  EXPECT_EQ(report.fallback_pairs, 0u);
  EXPECT_EQ(report.fastpath_pairs, 10u);
}

// ---- E4 analogue: header corruption -------------------------------------------

TEST(ElfAttacks, CorruptedElfMagicBecomesUnparseableNotACrash) {
  auto env = make_env(4);
  const vmm::DomainId victim = env->guests()[0];  // the reference VM, even
  const guestos::LoadedKo* ko = env->loader(victim).find("e1000");
  ASSERT_NE(ko, nullptr);
  const Bytes garbage = {'X', 'X', 'X', 'X'};
  env->kernel(victim).address_space().write_virtual(ko->base,
                                                    ByteView(garbage));

  // Auto-detection no longer recognizes the image; the tolerant parse
  // turns that into a MODULE_UNPARSEABLE verdict instead of a throw.
  const auto report = scan_both_ways(*env, "e1000");
  EXPECT_EQ(dirty_count(report, victim), 1u);
}

// ---- module hiding ------------------------------------------------------------

TEST(ElfAttacks, UnloadedModuleShowsAsListDiscrepancy) {
  auto env = make_env(5);
  const vmm::DomainId victim = env->guests()[3];
  env->loader(victim).unload("hello");

  ModChecker checker(env->hypervisor(), fast_config());
  const auto report = checker.compare_module_lists(env->guests());
  ASSERT_EQ(report.discrepancies.size(), 1u);
  const auto& d = report.discrepancies[0];
  EXPECT_EQ(d.module_name, "hello");
  EXPECT_EQ(d.missing_on, std::vector<vmm::DomainId>{victim});
  EXPECT_EQ(d.present_on.size(), 4u);
}

// ---- version grouping ---------------------------------------------------------

TEST(LinuxVersionGrouping, HomogeneousPoolIsOneRecognizedGroup) {
  auto env = make_env(4);
  const auto groups =
      group_pool_by_version(env->hypervisor(), env->guests());
  ASSERT_EQ(groups.recognized.size(), 1u);
  const auto it = groups.recognized.find(0x02061800u);
  ASSERT_NE(it, groups.recognized.end());
  EXPECT_EQ(it->second, env->guests());
  EXPECT_TRUE(groups.unrecognized.empty());
  EXPECT_TRUE(groups.faults.empty());
}

TEST(LinuxVersionGrouping, UnknownBuildRoutedToUnrecognizedNotThrown) {
  auto env = make_env(3);
  // Boot one extra guest on a Linux-like profile whose version id matches
  // no known build.
  static const guestos::GuestProfile weird = [] {
    guestos::GuestProfile p = guestos::linux26_profile();
    p.name = "linux-mystery-build";
    p.version_id = 0x99999999u;
    return p;
  }();
  const vmm::DomainId odd =
      env->hypervisor().create_domain("DomOdd", 64ull << 20);
  guestos::GuestConfig gc;
  gc.seed = 4242;
  gc.profile = &weird;
  guestos::GuestKernel kernel(env->hypervisor().domain(odd), gc);
  guestos::KoLoader loader(kernel);
  loader.load("hello", ByteView(env->golden_file("hello")));

  std::vector<vmm::DomainId> pool = env->guests();
  pool.push_back(odd);
  const auto groups = group_pool_by_version(env->hypervisor(), pool);
  ASSERT_EQ(groups.recognized.size(), 1u);
  EXPECT_EQ(groups.recognized.at(0x02061800u), env->guests());
  EXPECT_EQ(groups.unrecognized, std::vector<vmm::DomainId>{odd});
  ASSERT_EQ(groups.faults.size(), 1u);
  EXPECT_EQ(groups.faults[0].code, FaultCode::kUnrecognizedBuild);
  EXPECT_EQ(groups.faults[0].domain, odd);
}

}  // namespace
