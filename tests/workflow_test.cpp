// End-to-end workflow tests: complete operator stories spanning several
// subsystems at once (the integration level above per-module suites).
#include <gtest/gtest.h>

#include <memory>

#include "attacks/hollowing.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/version_spoof.hpp"
#include "baselines/lkim_style.hpp"
#include "cloud/environment.hpp"
#include "fallible_test_util.hpp"
#include "modchecker/audit.hpp"
#include "modchecker/forensics.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/scheduler.hpp"
#include "modchecker/searcher.hpp"
#include "vmi/dump.hpp"
#include "vmi/session.hpp"

namespace {

using namespace mc;
using namespace mc::core;
using mc::test::must;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

// Story 1: detect -> capture dump -> revert -> convict offline.
// (The paper's "revert to clean snapshot" must not destroy the evidence;
// memory forensics continues on the capture.)
TEST(Workflow, RevertThenConvictFromDump) {
  auto env = make_env(5);
  env->snapshot_all();
  const vmm::DomainId victim = env->guests()[1];
  attacks::InlineHookAttack{}.apply(*env, victim, "hal.dll");

  ModChecker checker(env->hypervisor());
  ASSERT_FALSE(checker.check_module(victim, "hal.dll").subject_clean);

  // Capture, then remediate immediately.
  const Bytes dump = vmi::dump_domain(env->hypervisor(), victim);
  env->revert(victim);
  ASSERT_TRUE(checker.check_module(victim, "hal.dll").subject_clean);

  // Offline: extract the module from the dump, compare against a live
  // clean VM, and produce the forensic classification.
  const vmi::DumpAnalysis analysis(dump);
  SimClock clock;
  vmi::VmiSession offline(analysis.hypervisor(), analysis.domain_id(),
                          clock);
  vmi::VmiSession live(env->hypervisor(), env->guests()[0], clock);
  const ModuleParser parser;
  const auto infected =
      parser.parse(*must(ModuleSearcher(offline).try_extract_module("hal.dll")),
                   clock);
  const auto reference =
      parser.parse(
          *must(ModuleSearcher(live).try_extract_module("hal.dll")), clock);

  const auto reports = analyze_all_flagged(infected, reference);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].item, ".text");
  EXPECT_EQ(reports[0].classification, DivergenceClass::kCodeInjection);
}

// Story 2: staged rollout plus a real infection — an update applied to a
// minority of VMs flags honestly and stays flagged on every re-check,
// while a rootkit landing mid-rollout on another module is flagged on its
// own VM and nowhere else.
TEST(Workflow, TriagedUpdatePlusRealInfection) {
  auto env = make_env(6);

  // "Update" ntfs.sys on two VMs (staged rollout).
  auto spec = cloud::default_catalog()[5];
  ASSERT_EQ(spec.name, "ntfs.sys");
  spec.seed ^= 0xBEEF;
  const Bytes updated = cloud::build_driver_image(spec);
  for (const std::size_t idx : {std::size_t{0}, std::size_t{1}}) {
    const auto vm = env->guests()[idx];
    env->write_disk_file(vm, "ntfs.sys", updated);
    env->loader(vm).unload("ntfs.sys");
    env->loader(vm).load("ntfs.sys", updated);
  }

  ModChecker checker(env->hypervisor());

  // First pass: both updated VMs flag; the rest of the pool agrees.
  std::vector<CheckReport> first;
  for (const std::size_t idx : {std::size_t{0}, std::size_t{1}}) {
    first.push_back(checker.check_module(env->guests()[idx], "ntfs.sys"));
    ASSERT_FALSE(first.back().subject_clean);
  }
  EXPECT_TRUE(checker.check_module(env->guests()[2], "ntfs.sys").subject_clean);

  // A rootkit lands on a third VM.
  attacks::HollowingAttack{}.apply(*env, env->guests()[3], "tcpip.sys");

  // Second pass: the rollout flags the same items as before, and the
  // rootkit is flagged on its victim only.
  for (std::size_t i = 0; i < first.size(); ++i) {
    const auto again = checker.check_module(first[i].subject, "ntfs.sys");
    EXPECT_FALSE(again.subject_clean);
    EXPECT_EQ(again.flagged_items, first[i].flagged_items);
  }
  const auto infected = checker.check_module(env->guests()[3], "tcpip.sys");
  EXPECT_FALSE(infected.subject_clean);
  EXPECT_EQ(infected.module_name, "tcpip.sys");
  EXPECT_EQ(infected.subject, env->guests()[3]);
  for (const auto vm : env->guests()) {
    if (vm != env->guests()[3]) {
      EXPECT_TRUE(checker.check_module(vm, "tcpip.sys").subject_clean)
          << "Dom" << vm;
    }
  }
}

// Story 3: continuous monitoring across an incident lifecycle — the
// schedule is quiet while healthy, flags exactly the victim on every scan
// while infected, and is quiet again after the revert.
TEST(Workflow, MonitorHistoryThroughRemediation) {
  auto env = make_env(5);
  env->snapshot_all();

  ScanScheduler scheduler(env->hypervisor(),
                          std::vector<vmm::DomainId>(env->guests()));
  scheduler.add_policy({"hal.dll", sim_ms(500), 0});

  const ScheduleReport healthy = scheduler.run_until(sim_ms(1000));
  ASSERT_FALSE(healthy.scans.empty());
  EXPECT_TRUE(healthy.alerts.empty());

  const vmm::DomainId victim = env->guests()[2];
  attacks::OpcodeReplaceAttack{}.apply(*env, victim, "hal.dll");
  const ScheduleReport infected = scheduler.run_until(sim_ms(2500));
  ASSERT_FALSE(infected.scans.empty());
  for (const auto& scan : infected.scans) {
    EXPECT_EQ(scan.flagged, std::vector<vmm::DomainId>{victim});
  }
  EXPECT_EQ(infected.alerts.size(), infected.scans.size());
  EXPECT_EQ(infected.new_alert_count(), 1u);  // one (module, VM) pair

  env->revert(victim);
  const ScheduleReport remediated = scheduler.run_until(sim_ms(4000));
  ASSERT_FALSE(remediated.scans.empty());
  for (const auto& scan : remediated.scans) {
    EXPECT_TRUE(scan.flagged.empty());
  }
  EXPECT_TRUE(remediated.alerts.empty());
}

// Story 4: hollowing — total code replacement with intact metadata is
// caught by ModChecker AND the LKIM baseline, and classified as a content
// divergence of maximal extent.
TEST(Workflow, HollowingCaughtAndCharacterized) {
  auto env = make_env(4);
  const vmm::DomainId victim = env->guests()[0];
  const auto result =
      attacks::HollowingAttack{"dummy.sys"}.apply(*env, victim, "ntfs.sys");
  EXPECT_EQ(result.expected_flagged, std::vector<std::string>{".text"});

  ModChecker checker(env->hypervisor());
  const auto report = checker.check_module(victim, "ntfs.sys");
  EXPECT_FALSE(report.subject_clean);
  EXPECT_EQ(report.flagged_items, std::vector<std::string>{".text"});

  const baselines::LkimStyleChecker lkim(env->golden().all());
  EXPECT_TRUE(lkim.check(*env, victim, "ntfs.sys").flagged);

  // Forensics: nearly the whole section differs.
  SimClock clock;
  vmi::VmiSession vs(env->hypervisor(), victim, clock);
  vmi::VmiSession rs(env->hypervisor(), env->guests()[1], clock);
  const ModuleParser parser;
  const auto sub =
      parser.parse(
          *must(ModuleSearcher(vs).try_extract_module("ntfs.sys")), clock);
  const auto ref =
      parser.parse(
          *must(ModuleSearcher(rs).try_extract_module("ntfs.sys")), clock);
  const auto forensic = analyze_divergence(sub, ref, ".text");
  EXPECT_GT(forensic.differing_bytes,
            sub.items.back().content_size() / 2);
}

// Story 5: different digest algorithms agree on every verdict.
TEST(Workflow, Sha256ModeMatchesMd5Verdicts) {
  auto env = make_env(5);
  attacks::VersionSpoofAttack{}.apply(*env, env->guests()[1], "http.sys");
  attacks::InlineHookAttack{}.apply(*env, env->guests()[2], "hal.dll");

  ModCheckerConfig md5_cfg;
  ModCheckerConfig sha_cfg;
  sha_cfg.algorithm = crypto::HashAlgorithm::kSha256;
  ModChecker md5(env->hypervisor(), md5_cfg);
  ModChecker sha(env->hypervisor(), sha_cfg);

  for (const auto& module : env->config().load_order) {
    for (const auto vm : env->guests()) {
      const auto a = md5.check_module(vm, module);
      const auto b = sha.check_module(vm, module);
      EXPECT_EQ(a.subject_clean, b.subject_clean)
          << module << " Dom" << vm;
      EXPECT_EQ(a.flagged_items, b.flagged_items);
    }
  }
}

}  // namespace
