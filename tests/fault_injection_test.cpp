// Fault-injection suite (ctest label: faultinj) — the fault-domain
// refactor's behavioural contract under an actively misbehaving guest:
//
//   * the injector itself is deterministic (same profile + seed → the
//     same fault points), so every scenario here is reproducible;
//   * transient faults are retried and recovered from (the verdict is
//     unchanged, the FaultRecords are kept as evidence);
//   * a guest that never answers is quarantined — the sweep completes,
//     the healthy majority still votes, and the quarantine is visible in
//     the text, JSON and fleet-service surfaces;
//   * when too few peers answer, verdicts carry quorum_lost instead of
//     pretending the paper's majority rule still holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attacks/dll_import_inject.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/stub_patch.hpp"
#include "cloud/environment.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/report.hpp"
#include "modchecker/report_json.hpp"
#include "service/coordinator.hpp"
#include "vmi/session.hpp"
#include "vmm/fault_injection.hpp"

namespace {

using namespace mc;
using namespace mc::core;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

vmm::FaultProfile always_fault() {
  vmm::FaultProfile p;
  p.read_fault_rate = 1.0;
  return p;
}

// ---- FaultInjector unit -------------------------------------------------------

TEST(FaultInjector, DeterministicAcrossInstances) {
  vmm::FaultProfile p;
  p.read_fault_rate = 0.25;
  p.translation_fault_rate = 0.1;
  p.seed = 42;

  vmm::FaultInjector a;
  vmm::FaultInjector b;
  a.arm(3, p);
  b.arm(3, p);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.should_fault_read(3), b.should_fault_read(3)) << "call " << i;
    EXPECT_EQ(a.should_fault_translation(3), b.should_fault_translation(3));
  }
}

TEST(FaultInjector, CounterTriggersAreExact) {
  vmm::FaultInjector injector;
  vmm::FaultProfile first3;
  first3.fail_first_reads = 3;
  injector.arm(1, first3);
  vmm::FaultProfile after5;
  after5.fail_after_reads = 5;
  injector.arm(2, after5);

  for (int call = 1; call <= 10; ++call) {
    EXPECT_EQ(injector.should_fault_read(1), call <= 3) << "call " << call;
    EXPECT_EQ(injector.should_fault_read(2), call > 5) << "call " << call;
  }
  EXPECT_EQ(injector.stats().injected_read_faults, 3u + 5u);
}

TEST(FaultInjector, ArmedGateTracksProfiles) {
  vmm::FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  injector.arm(1, always_fault());
  injector.arm(2, always_fault());
  EXPECT_TRUE(injector.armed());
  injector.disarm(1);
  EXPECT_TRUE(injector.armed());  // Dom2 still armed
  injector.disarm(2);
  EXPECT_FALSE(injector.armed());  // map empty — hot path gate re-closes
  injector.arm(1, always_fault());
  injector.disarm_all();
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjector, UnarmedDomainNeverFaults) {
  vmm::FaultInjector injector;
  injector.arm(7, always_fault());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.should_fault_read(8));
  }
}

// ---- VmiSession fault surface -------------------------------------------------

TEST(SessionFaults, TryReadSurfacesRecordAndLegacyThrows) {
  auto env = make_env(2);
  env->hypervisor().fault_injector().arm(env->guests()[0], always_fault());

  SimClock clock;
  vmi::VmiSession session(env->hypervisor(), env->guests()[0], clock);
  const auto r = session.try_read_region(0x80000000u, 16);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().code, FaultCode::kReadFault);
  EXPECT_EQ(r.fault().domain, env->guests()[0]);
  EXPECT_EQ(r.fault().va, 0x80000000u);
  EXPECT_GT(session.stats().faults_observed, 0u);

  // The legacy wrapper raises GuestFaultError, which still IS a VmiError.
  try {
    (void)session.read_region(0x80000000u, 16);
    FAIL() << "read_region on a 100%-faulting domain must throw";
  } catch (const GuestFaultError& e) {
    EXPECT_EQ(e.record().code, FaultCode::kReadFault);
  }
  EXPECT_THROW((void)session.read_region(0x80000000u, 16), VmiError);
}

// ---- retry / recovery ---------------------------------------------------------

TEST(Retry, TransientFaultRecoversWithoutQuarantine) {
  auto env = make_env(4);
  vmm::FaultProfile transient;
  transient.fail_first_reads = 1;  // first read call faults, then recovers
  env->hypervisor().fault_injector().arm(env->guests()[1], transient);

  ModChecker checker(env->hypervisor());
  const auto scan = checker.scan_pool("hal.dll", env->guests());
  ASSERT_EQ(scan.verdicts.size(), 4u);
  for (const auto& v : scan.verdicts) {
    EXPECT_TRUE(v.clean) << "Dom" << v.vm;
    EXPECT_FALSE(v.quarantined) << "Dom" << v.vm;
    EXPECT_FALSE(v.quorum_lost) << "Dom" << v.vm;
  }
  EXPECT_TRUE(scan.quarantined.empty());
  // The recovered fault is kept as evidence: attempt 1, Acquire stage.
  ASSERT_FALSE(scan.faults.empty());
  EXPECT_EQ(scan.faults[0].domain, env->guests()[1]);
  EXPECT_EQ(scan.faults[0].attempt, 1u);
  EXPECT_EQ(scan.faults[0].stage, CheckStage::kAcquire);
}

TEST(Retry, BackoffScheduleIsBoundedAndDeterministic) {
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_base = sim_us(50);
  retry.backoff = RetryPolicy::Backoff::kExponential;
  EXPECT_EQ(retry.delay_before(2), sim_us(50));
  EXPECT_EQ(retry.delay_before(3), 2 * sim_us(50));
  EXPECT_EQ(retry.delay_before(4), 4 * sim_us(50));
  retry.backoff = RetryPolicy::Backoff::kFixed;
  EXPECT_EQ(retry.delay_before(4), sim_us(50));
}

TEST(Retry, AttemptCountRespectsPolicy) {
  auto env = make_env(3);
  env->hypervisor().fault_injector().arm(env->guests()[2], always_fault());

  ModCheckerConfig cfg;
  cfg.retry.max_attempts = 5;
  ModChecker checker(env->hypervisor(), cfg);
  const auto scan = checker.scan_pool("hal.dll", env->guests());

  std::size_t faults_on_victim = 0;
  std::uint32_t max_attempt = 0;
  for (const auto& f : scan.faults) {
    if (f.domain == env->guests()[2]) {
      ++faults_on_victim;
      max_attempt = std::max(max_attempt, f.attempt);
    }
  }
  EXPECT_EQ(faults_on_victim, 5u);
  EXPECT_EQ(max_attempt, 5u);
}

// ---- the acceptance-criteria degradation proof --------------------------------

/// t=5, one domain 100% read-faulting: the sweep completes, the faulty
/// domain is quarantined with FaultRecords in the JSON, and the four
/// healthy VMs still get correct verdicts — clean pool and E1-E4 variants.
class DegradationProof : public ::testing::Test {
 protected:
  void run(const std::string& module,
           const std::function<void(cloud::CloudEnvironment&)>& infect,
           vmm::DomainId infected) {
    auto env = make_env(5);
    const vmm::DomainId faulty = env->guests()[3];
    env->hypervisor().fault_injector().arm(faulty, always_fault());
    if (infect) {
      infect(*env);
    }

    ModChecker checker(env->hypervisor());
    const auto scan = checker.scan_pool(module, env->guests());

    ASSERT_EQ(scan.verdicts.size(), 5u);
    ASSERT_EQ(scan.quarantined.size(), 1u);
    EXPECT_EQ(scan.quarantined[0], faulty);
    EXPECT_TRUE(scan.degraded());
    EXPECT_FALSE(scan.faults.empty());

    for (const auto& v : scan.verdicts) {
      if (v.vm == faulty) {
        EXPECT_TRUE(v.quarantined);
        EXPECT_EQ(v.total, 0u);
        EXPECT_FALSE(v.quorum_lost);  // no verdict to degrade
        continue;
      }
      EXPECT_FALSE(v.quarantined);
      // 3 answering peers of 4 — the majority rule still has quorum.
      EXPECT_EQ(v.peers_total, 4u);
      EXPECT_EQ(v.peers_answered, 3u);
      EXPECT_FALSE(v.quorum_lost);
      EXPECT_EQ(v.clean, v.vm != infected) << "Dom" << v.vm;
    }

    // The quarantine and its evidence reach the JSON surface.
    const std::string json = to_json(scan);
    EXPECT_NE(json.find("\"quarantined\""), std::string::npos);
    EXPECT_NE(json.find("\"faults\""), std::string::npos);
    EXPECT_NE(json.find("\"read-fault\""), std::string::npos);
    // ... and the operator-facing text report.
    const std::string text = format_pool_report(scan);
    EXPECT_NE(text.find("QUARANTINED"), std::string::npos);
  }
};

TEST_F(DegradationProof, CleanPool) { run("hal.dll", nullptr, 0); }

TEST_F(DegradationProof, E1_OpcodeReplace) {
  run("hal.dll",
      [](cloud::CloudEnvironment& env) {
        attacks::OpcodeReplaceAttack{}.apply(env, env.guests()[1], "hal.dll");
      },
      2);
}

TEST_F(DegradationProof, E2_InlineHook) {
  run("hal.dll",
      [](cloud::CloudEnvironment& env) {
        attacks::InlineHookAttack{}.apply(env, env.guests()[1], "hal.dll");
      },
      2);
}

TEST_F(DegradationProof, E3_StubPatch) {
  run("dummy.sys",
      [](cloud::CloudEnvironment& env) {
        attacks::StubPatchAttack{}.apply(env, env.guests()[1], "dummy.sys");
      },
      2);
}

TEST_F(DegradationProof, E4_DllImportInject) {
  run("dummy.sys",
      [](cloud::CloudEnvironment& env) {
        attacks::DllImportInjectAttack{}.apply(env, env.guests()[1],
                                               "dummy.sys");
      },
      2);
}

// ---- degraded quorum ----------------------------------------------------------

TEST(DegradedQuorum, RulePredicate) {
  EXPECT_FALSE(VoteStage::quorum_lost(0, 0));  // single-VM pool: no peers
  EXPECT_FALSE(VoteStage::quorum_lost(3, 4));
  EXPECT_FALSE(VoteStage::quorum_lost(3, 5));  // 2*3 > 5
  EXPECT_TRUE(VoteStage::quorum_lost(2, 4));   // tie is not a quorum
  EXPECT_TRUE(VoteStage::quorum_lost(2, 5));
  EXPECT_TRUE(VoteStage::quorum_lost(0, 4));
}

TEST(DegradedQuorum, CheckModuleFlagsQuorumLoss) {
  auto env = make_env(5);
  // 3 of the subject's 4 peers never answer: 1 <= (5-1)/2 voters left.
  for (const std::size_t i : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}}) {
    env->hypervisor().fault_injector().arm(env->guests()[i], always_fault());
  }
  ModChecker checker(env->hypervisor());
  const auto report = checker.check_module(env->guests()[0], "hal.dll");
  EXPECT_EQ(report.peers_total, 4u);
  EXPECT_EQ(report.peers_answered, 1u);
  EXPECT_TRUE(report.quorum_lost);
  EXPECT_FALSE(report.subject_unavailable);
  EXPECT_EQ(report.unavailable_on.size(), 3u);
  // The lone remaining comparison still votes clean — the flag tells the
  // operator how little that vote now means.
  EXPECT_TRUE(report.subject_clean);
  const std::string text = format_report(report);
  EXPECT_NE(text.find("QUORUM LOST"), std::string::npos);
}

TEST(DegradedQuorum, UnavailableSubjectHasNoVerdict) {
  auto env = make_env(4);
  env->hypervisor().fault_injector().arm(env->guests()[0], always_fault());
  ModChecker checker(env->hypervisor());
  const auto report = checker.check_module(env->guests()[0], "hal.dll");
  EXPECT_TRUE(report.subject_unavailable);
  EXPECT_FALSE(report.subject_clean);
  EXPECT_EQ(report.total_comparisons, 0u);
  EXPECT_TRUE(report.quorum_lost);  // zero voters
  EXPECT_FALSE(report.faults.empty());
  const std::string text = format_report(report);
  EXPECT_NE(text.find("UNAVAILABLE"), std::string::npos);
}

// ---- JSON conditional emission ------------------------------------------------

TEST(FaultJson, HealthyReportsCarryNoFaultFields) {
  auto env = make_env(4);
  ModChecker checker(env->hypervisor());
  const auto scan = checker.scan_pool("hal.dll", env->guests());
  EXPECT_FALSE(scan.degraded());
  const std::string json = to_json(scan);
  EXPECT_EQ(json.find("\"quarantined\""), std::string::npos);
  EXPECT_EQ(json.find("\"faults\""), std::string::npos);
  EXPECT_EQ(json.find("\"quorum_lost\""), std::string::npos);

  const auto check = checker.check_module(env->guests()[0], "hal.dll");
  const std::string check_json = to_json(check);
  EXPECT_EQ(check_json.find("\"faults\""), std::string::npos);
  EXPECT_EQ(check_json.find("\"subject_unavailable\""), std::string::npos);
}

TEST(FaultJson, FaultRecordSchema) {
  FaultRecord fault;
  fault.code = FaultCode::kTranslationFault;
  fault.domain = 3;
  fault.va = 0x1000;
  fault.attempt = 2;
  fault.stage = CheckStage::kAcquire;
  fault.detail = "x";
  const std::string json = to_json(fault);
  EXPECT_NE(json.find("\"code\":\"translation-fault\""), std::string::npos);
  EXPECT_NE(json.find("\"domain\":3"), std::string::npos);
  EXPECT_NE(json.find("\"attempt\":2"), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"acquire\""), std::string::npos);
}

// ---- fleet service quarantine surface -----------------------------------------

TEST(FleetFaults, QuarantineSurfacesAndRecurrenceRetries) {
  auto env = make_env(4);
  const vmm::DomainId faulty = env->guests()[2];
  env->hypervisor().fault_injector().arm(faulty, always_fault());

  service::ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<service::RingSink>();
  fleet.add_sink(ring);

  service::SweepSpec spec;
  spec.name = "faulty-pool";
  spec.pool_index = pool;
  spec.modules = {"hal.dll", "ntfs.sys"};
  spec.repeat = 2;  // the recurrence must restart from the *full* pool
  spec.cadence = sim_ms(500);
  fleet.start();
  ASSERT_NE(fleet.submit(spec), 0u);
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& report : reports) {
    // Quarantined on the first module, then sat out the second: exactly
    // one quarantine event per run, and both modules still scanned (3
    // healthy VMs remain).
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0], faulty);
    EXPECT_FALSE(report.pool_exhausted);
    ASSERT_EQ(report.scans.size(), 2u);
    EXPECT_EQ(report.scans[0].quarantined.size(), 1u);
    EXPECT_TRUE(report.scans[1].quarantined.empty());  // already excluded
    const std::string json = service::to_json(report);
    EXPECT_NE(json.find("\"quarantined\""), std::string::npos);
  }
  EXPECT_EQ(fleet.stats().quarantine_events, 2u);
  EXPECT_EQ(fleet.stats().exhausted_runs, 0u);
}

}  // namespace
