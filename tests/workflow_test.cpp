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
#include "modchecker/history.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/scheduler.hpp"
#include "modchecker/searcher.hpp"
#include "modchecker/triage.hpp"
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

// Story 2: staged rollout triage — an acknowledged update stays quiet in
// the scheduler-driven pipeline while a real infection still alerts.
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
  FindingTriage triage;

  // First pass: both updated VMs flag; operator acknowledges them.
  std::vector<CheckReport> reports;
  for (const std::size_t idx : {std::size_t{0}, std::size_t{1}}) {
    reports.push_back(
        checker.check_module(env->guests()[idx], "ntfs.sys"));
    ASSERT_FALSE(reports.back().subject_clean);
    triage.acknowledge(reports.back(), "staged 5.2 rollout");
  }

  // A rootkit lands on a third VM.
  attacks::HollowingAttack{}.apply(*env, env->guests()[3], "tcpip.sys");

  // Second pass over everything: only the rootkit remains actionable.
  std::vector<CheckReport> second;
  second.push_back(checker.check_module(env->guests()[0], "ntfs.sys"));
  second.push_back(checker.check_module(env->guests()[1], "ntfs.sys"));
  second.push_back(checker.check_module(env->guests()[3], "tcpip.sys"));
  const auto open = triage.unacknowledged(second);
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0]->module_name, "tcpip.sys");
  EXPECT_EQ(open[0]->subject, env->guests()[3]);
}

// Story 3: continuous monitoring + history across an incident lifecycle.
TEST(Workflow, MonitorHistoryThroughRemediation) {
  auto env = make_env(5);
  env->snapshot_all();

  ScanScheduler scheduler(env->hypervisor(),
                          std::vector<vmm::DomainId>(env->guests()));
  scheduler.add_policy({"hal.dll", sim_ms(500), 0});
  ScanHistory history;

  history.ingest(scheduler.run_until(sim_ms(1000)));  // healthy
  EXPECT_TRUE(history.active().empty());

  const vmm::DomainId victim = env->guests()[2];
  attacks::OpcodeReplaceAttack{}.apply(*env, victim, "hal.dll");
  history.ingest(scheduler.run_until(sim_ms(2500)));
  ASSERT_EQ(history.active().size(), 1u);
  EXPECT_EQ(history.active()[0]->vm, victim);

  env->revert(victim);
  history.ingest(scheduler.run_until(sim_ms(4000)));
  EXPECT_TRUE(history.active().empty());
  EXPECT_EQ(history.findings()[0].flaps, 0u);  // clean close, no flapping
  EXPECT_GT(history.findings()[0].exposure(sim_ms(4000)), 0u);
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
