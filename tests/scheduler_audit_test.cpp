// Tests for the audit sweep, the continuous-monitoring scheduler, and the
// infection-campaign simulator.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "attacks/campaign.hpp"
#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "modchecker/audit.hpp"
#include "modchecker/scheduler.hpp"

namespace {

using namespace mc;
using namespace mc::core;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

// ---- audit -----------------------------------------------------------------------
TEST(Audit, CleanCloudHasNoFindings) {
  auto env = make_env(4);
  const auto report = audit_modules(env->hypervisor(),
                                    env->config().load_order, env->guests());
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.scans.size(), env->config().load_order.size());
  EXPECT_GT(report.total_wall, 0u);
  EXPECT_GT(report.total_cpu.total(), 0u);
}

TEST(Audit, FindsEveryPlantedInfection) {
  auto env = make_env(5);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[1], "hal.dll");
  attacks::InlineHookAttack{}.apply(*env, env->guests()[3], "ntfs.sys");

  const auto report = audit_modules(env->hypervisor(),
                                    env->config().load_order, env->guests());
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.findings[0].module, "hal.dll");
  EXPECT_EQ(report.findings[0].vm, env->guests()[1]);
  EXPECT_EQ(report.findings[1].module, "ntfs.sys");
  EXPECT_EQ(report.findings[1].vm, env->guests()[3]);
}

TEST(Audit, FormattingShowsMatrixAndFindings) {
  auto env = make_env(3);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  const auto report = audit_modules(env->hypervisor(), {"hal.dll"},
                                    env->guests());
  const std::string text = format_audit_report(report);
  EXPECT_NE(text.find("FLAG"), std::string::npos);
  EXPECT_NE(text.find("hal.dll on Dom1"), std::string::npos);
}

// ---- scheduler --------------------------------------------------------------------
TEST(Scheduler, RunsPoliciesAtTheirIntervals) {
  auto env = make_env(3);
  ScanScheduler scheduler(env->hypervisor(), env->guests());
  scheduler.add_policy({"hal.dll", sim_ms(1000), 0});
  scheduler.add_policy({"http.sys", sim_ms(2500), sim_ms(100)});

  const auto report = scheduler.run_until(sim_ms(5000));
  std::size_t hal = 0;
  std::size_t http = 0;
  for (const auto& scan : report.scans) {
    if (scan.module == "hal.dll") {
      ++hal;
    } else if (scan.module == "http.sys") {
      ++http;
    }
  }
  EXPECT_EQ(hal, 5u);   // due at 0,1000,2000,3000,4000 ms
  EXPECT_EQ(http, 2u);  // due at 100, 2600 ms
  EXPECT_TRUE(report.alerts.empty());
  EXPECT_GT(report.duty_cycle(), 0.0);
  EXPECT_LT(report.duty_cycle(), 0.2);  // light-weight, as the paper claims
}

TEST(Scheduler, ScansSerializeWhenDueTimesCollide) {
  auto env = make_env(4);
  ScanScheduler scheduler(env->hypervisor(), env->guests());
  // Both due at t=0: the second must start after the first finishes.
  scheduler.add_policy({"hal.dll", sim_ms(100000), 0});
  scheduler.add_policy({"http.sys", sim_ms(100000), 0});
  const auto report = scheduler.run_until(sim_ms(50000));
  ASSERT_EQ(report.scans.size(), 2u);
  EXPECT_EQ(report.scans[0].started, 0u);
  EXPECT_EQ(report.scans[1].started, report.scans[0].finished);
  EXPECT_GE(report.scans[1].started, report.scans[1].due);
}

TEST(Scheduler, AlertsFireAndDeduplicate) {
  // 4 VMs: with only 3 a clean VM matches exactly half its peers and the
  // strict majority n > (t-1)/2 flags everyone (see A4 boundary analysis).
  auto env = make_env(4);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[2], "hal.dll");

  ScanScheduler scheduler(env->hypervisor(), env->guests());
  scheduler.add_policy({"hal.dll", sim_ms(1000), 0});
  const auto report = scheduler.run_until(sim_ms(3500));

  // 4 scans, each flagging the same VM; only the first alert is new.
  ASSERT_EQ(report.scans.size(), 4u);
  ASSERT_EQ(report.alerts.size(), 4u);
  EXPECT_EQ(report.new_alert_count(), 1u);
  for (const auto& alert : report.alerts) {
    EXPECT_EQ(alert.vm, env->guests()[2]);
    EXPECT_EQ(alert.module, "hal.dll");
  }
}

TEST(Scheduler, RejectsDegenerateInputs) {
  auto env = make_env(3);
  EXPECT_THROW(ScanScheduler(env->hypervisor(), {env->guests()[0]}),
               InvalidArgument);
  ScanScheduler scheduler(env->hypervisor(), env->guests());
  EXPECT_THROW(scheduler.add_policy({"hal.dll", 0, 0}), InvalidArgument);
}

TEST(Scheduler, ReportFormatting) {
  auto env = make_env(3);
  ScanScheduler scheduler(env->hypervisor(), env->guests());
  scheduler.add_policy({"hal.dll", sim_ms(1000), 0});
  const std::string text =
      format_schedule_report(scheduler.run_until(sim_ms(2000)));
  EXPECT_NE(text.find("hal.dll"), std::string::npos);
  EXPECT_NE(text.find("duty cycle"), std::string::npos);
}

// ---- infection campaign ---------------------------------------------------------------
TEST(Campaign, SpreadsMonotonicallyToSaturation) {
  auto env = make_env(8);
  attacks::CampaignConfig cfg;
  cfg.seed = 4;
  cfg.contact_infectivity = 0.6;
  attacks::InfectionCampaign campaign(cfg);
  const auto result = campaign.run(*env, attacks::InlineHookAttack{},
                                   "hal.dll", env->guests()[0]);

  EXPECT_EQ(result.infected.size(), 8u);  // saturates with p=0.6
  std::size_t prev_total = 0;
  for (const auto& wave : result.waves) {
    EXPECT_GT(wave.total_infected, prev_total);
    prev_total = wave.total_infected;
  }
  EXPECT_EQ(prev_total, 8u);
}

TEST(Campaign, InfectionsAreRealAttacks) {
  auto env = make_env(4);
  attacks::CampaignConfig cfg;
  cfg.seed = 2;
  cfg.contact_infectivity = 1.0;  // everything falls in wave 1
  attacks::InfectionCampaign campaign(cfg);
  campaign.run(*env, attacks::InlineHookAttack{}, "hal.dll",
               env->guests()[0]);

  // Every VM infected identically: pool looks self-consistent -> the
  // uniform blind spot the paper concedes.
  ModChecker checker(env->hypervisor());
  const auto scan = checker.scan_pool("hal.dll", env->guests());
  for (const auto& verdict : scan.verdicts) {
    EXPECT_TRUE(verdict.clean);
  }
  // But against a clean snapshot reference the infection is plain.
}

TEST(Campaign, DeterministicBySeed) {
  attacks::CampaignConfig cfg;
  cfg.seed = 11;
  cfg.contact_infectivity = 0.3;
  auto env1 = make_env(6);
  auto env2 = make_env(6);
  const auto a = attacks::InfectionCampaign(cfg).run(
      *env1, attacks::InlineHookAttack{}, "hal.dll", env1->guests()[0]);
  const auto b = attacks::InfectionCampaign(cfg).run(
      *env2, attacks::InlineHookAttack{}, "hal.dll", env2->guests()[0]);
  EXPECT_EQ(a.infected, b.infected);
  EXPECT_EQ(a.waves.size(), b.waves.size());
}

TEST(Campaign, RejectsForeignPatientZero) {
  auto env = make_env(2);
  attacks::InfectionCampaign campaign;
  EXPECT_THROW(campaign.run(*env, attacks::InlineHookAttack{}, "hal.dll",
                            99),
               InvalidArgument);
}

}  // namespace
