// Fault-injection suite (ctest label: faultinj) — the fault-domain
// refactor's behavioural contract under an actively misbehaving guest:
//
//   * the injector itself is deterministic (same profile + seed → the
//     same fault points), so every scenario here is reproducible;
//   * transient faults are retried and recovered from (the verdict is
//     unchanged, the FaultRecords are kept as evidence);
//   * a guest that never answers is quarantined — the sweep completes,
//     the healthy majority still votes, and the quarantine is visible in
//     the text, JSON and fleet-service surfaces, for event-driven sweeps
//     over the scan cache as for fresh ones;
//   * when too few peers answer, verdicts carry quorum_lost instead of
//     pretending the paper's majority rule still holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attacks/dll_import_inject.hpp"
#include "attacks/guest_writer.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/stub_patch.hpp"
#include "cloud/environment.hpp"
#include "modchecker/incremental.hpp"
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

TEST(SessionFaults, TryReadSurfacesRecord) {
  auto env = make_env(2);
  env->hypervisor().fault_injector().arm(env->guests()[0], always_fault());

  SimClock clock;
  telemetry::MetricRegistry metrics;
  vmi::VmiSession session(env->hypervisor(), env->guests()[0], clock, {},
                          &metrics);
  const auto r = session.try_read_region(0x80000000u, 16);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().code, FaultCode::kReadFault);
  EXPECT_EQ(r.fault().domain, env->guests()[0]);
  EXPECT_EQ(r.fault().va, 0x80000000u);
  EXPECT_EQ(metrics.counter("vmi.faults_observed").value(), 1u);
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

/// Rewrites the first 16 bytes of `vm`'s `module` with the values already
/// there: the cached copy's watch goes dirty, the content does not change.
void same_value_rewrite(cloud::CloudEnvironment& env, vmm::DomainId vm,
                        const std::string& module) {
  attacks::GuestMemoryWriter writer(env, vm);
  std::uint32_t base = 0;
  const Bytes image = writer.read_module_image(module, &base);
  writer.write(base, ByteView(image.data(), 16));
}

TEST(Retry, TransientFaultOnDirtyCachedCopyRecovers) {
  auto env = make_env(4);
  const vmm::DomainId victim = env->guests()[1];
  IncrementalScanner incremental(env->hypervisor());
  ModChecker fresh(env->hypervisor());
  (void)incremental.scan("hal.dll", env->guests());  // warm the cache

  same_value_rewrite(*env, victim, "hal.dll");
  vmm::FaultProfile transient;
  transient.fail_first_reads = 1;
  env->hypervisor().fault_injector().arm(victim, transient);
  const PoolScanReport scan = incremental.scan("hal.dll", env->guests());

  EXPECT_TRUE(scan.quarantined.empty());
  ASSERT_EQ(scan.faults.size(), 1u);
  EXPECT_EQ(scan.faults[0].domain, victim);
  EXPECT_EQ(scan.faults[0].attempt, 1u);
  // The loader snapshot answers without a read, so the fault lands on the
  // patch's page read: attempt 1 drained the dirty set, and attempt 2
  // re-extracts the copy rather than serve a half-checked one.
  EXPECT_EQ(incremental.stats().partial_refreshes, 0u);
  EXPECT_EQ(incremental.stats().full_extractions, env->guests().size() + 1);

  const PoolScanReport expected = fresh.scan_pool("hal.dll", env->guests());
  ASSERT_EQ(scan.verdicts.size(), expected.verdicts.size());
  for (std::size_t i = 0; i < scan.verdicts.size(); ++i) {
    const PoolVmVerdict& got = scan.verdicts[i];
    const PoolVmVerdict& want = expected.verdicts[i];
    EXPECT_EQ(got.vm, want.vm);
    EXPECT_EQ(got.clean, want.clean) << "Dom" << got.vm;
    EXPECT_EQ(got.successes, want.successes) << "Dom" << got.vm;
    EXPECT_EQ(got.total, want.total) << "Dom" << got.vm;
    EXPECT_FALSE(got.quarantined) << "Dom" << got.vm;
    EXPECT_FALSE(got.quorum_lost) << "Dom" << got.vm;
  }
}

TEST(Retry, BackoffScheduleIsBoundedAndDeterministic) {
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_base = sim_us(50);
  // No wait before the first attempt.
  EXPECT_EQ(retry.delay_before(0), 0u);
  EXPECT_EQ(retry.delay_before(1), 0u);
  EXPECT_EQ(retry.delay_before(2), sim_us(50));
  EXPECT_EQ(retry.delay_before(3), 2 * sim_us(50));
  EXPECT_EQ(retry.delay_before(4), 4 * sim_us(50));
  // The doubling stops at 2^20: retry 22 is the last to double.
  const SimNanos cap = retry.backoff_base << 20;
  EXPECT_EQ(retry.delay_before(21), cap / 2);
  EXPECT_EQ(retry.delay_before(22), cap);
  EXPECT_EQ(retry.delay_before(23), cap);
  EXPECT_EQ(retry.delay_before(1000), cap);
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

TEST(DegradedQuorum, CheckBillsAQuarantinedPeersRetries) {
  auto env = make_env(5);
  const vmm::DomainId victim = env->guests()[3];
  env->hypervisor().fault_injector().arm(victim, always_fault());
  ModCheckerConfig cfg;
  cfg.retry.backoff_base = sim_ms(1);
  ModChecker checker(env->hypervisor(), cfg);
  const auto report = checker.check_module(env->guests()[0], "hal.dll");
  ASSERT_EQ(report.unavailable_on, std::vector<vmm::DomainId>{victim});
  // Three attempts on the victim sleep 1 + 2 ms of backoff: time the check
  // spent, billed as a pool scan bills it, and part of the sequential
  // wall time.
  EXPECT_GE(report.cpu_times.searcher, 2 * sim_ms(1));
  EXPECT_EQ(report.wall_time, report.cpu_times.total());
}

TEST(DegradedQuorum, CheckIsItsSubjectsRowOfTheDegradedPoolScan) {
  // Three of six VMs never answer (so the rest lose their quorum) and one
  // is infected: every answering VM's check must read its verdict off the
  // same vote a pool scan takes.
  auto env = make_env(6);
  for (const std::size_t i :
       {std::size_t{2}, std::size_t{4}, std::size_t{5}}) {
    env->hypervisor().fault_injector().arm(env->guests()[i], always_fault());
  }
  attacks::InlineHookAttack{}.apply(*env, env->guests()[1], "hal.dll");
  ModChecker checker(env->hypervisor());
  const auto scan = checker.scan_pool("hal.dll", env->guests());
  ASSERT_EQ(scan.quarantined.size(), 3u);
  for (const PoolVmVerdict& v : scan.verdicts) {
    if (v.quarantined) {
      continue;
    }
    const auto report = checker.check_module(v.vm, "hal.dll", env->guests());
    EXPECT_EQ(report.successes, v.successes) << "Dom" << v.vm;
    EXPECT_EQ(report.total_comparisons, v.total) << "Dom" << v.vm;
    EXPECT_EQ(report.subject_clean, v.clean) << "Dom" << v.vm;
    EXPECT_EQ(report.peers_total, v.peers_total) << "Dom" << v.vm;
    EXPECT_EQ(report.peers_answered, v.peers_answered) << "Dom" << v.vm;
    EXPECT_EQ(report.quorum_lost, v.quorum_lost) << "Dom" << v.vm;
    EXPECT_TRUE(report.quorum_lost) << "Dom" << v.vm;
    EXPECT_EQ(report.unavailable_on, scan.quarantined) << "Dom" << v.vm;
  }
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

TEST(FleetFaults, EventDrivenSweepQuarantinesFaultingVm) {
  // Before run 0 scans ntfs.sys, VM 3's copy is dirtied (same values) and
  // the VM stops answering.  The event-driven sweep must quarantine it
  // like a full sweep does: every run reports, nothing unwinds out of the
  // worker, and drain() returns.
  auto env = make_env(4);
  const vmm::DomainId faulty = env->guests()[3];
  service::ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<service::RingSink>();
  fleet.add_sink(ring);
  fleet.set_module_hook([&](service::SweepId, std::size_t run_index,
                            const std::string& module) {
    if (run_index == 0 && module == "ntfs.sys") {
      same_value_rewrite(*env, faulty, module);
      env->hypervisor().fault_injector().arm(faulty, always_fault());
    }
  });

  service::SweepSpec spec;
  spec.name = "event-faulty";
  spec.pool_index = pool;
  spec.modules = {"hal.dll", "ntfs.sys"};
  spec.repeat = 3;
  spec.cadence = sim_ms(500);
  spec.event_driven = true;
  fleet.start();
  ASSERT_NE(fleet.submit(spec), 0u);
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& report : reports) {
    // A tick after a quarantine never skips: the guest could recover
    // without writing to memory.
    EXPECT_FALSE(report.skipped_clean) << "run " << report.run_index;
    ASSERT_EQ(report.quarantined.size(), 1u) << "run " << report.run_index;
    EXPECT_EQ(report.quarantined[0], faulty);
    EXPECT_FALSE(report.pool_exhausted);
    ASSERT_EQ(report.scans.size(), 2u);
    for (const auto& scan : report.scans) {
      for (const auto& v : scan.verdicts) {
        EXPECT_TRUE(v.quarantined || v.clean) << "Dom" << v.vm;
      }
    }
  }
  // Run 0 quarantines VM 3 on ntfs.sys (hal.dll was scanned before the
  // fault); later runs lose it on hal.dll and scan ntfs.sys without it.
  EXPECT_TRUE(reports[0].scans[0].quarantined.empty());
  EXPECT_EQ(reports[0].scans[1].quarantined.size(), 1u);
  EXPECT_EQ(reports[1].scans[0].quarantined.size(), 1u);
  EXPECT_EQ(reports[1].scans[1].verdicts.size(), 3u);
  EXPECT_EQ(fleet.stats().quarantine_events, 3u);
  EXPECT_EQ(fleet.stats().event_runs, 3u);
}

}  // namespace
