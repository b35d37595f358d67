// Integration tests for the ModChecker orchestrator: pool checks, majority
// voting, parallel mode equivalence, timing invariants.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/byte_patch.hpp"
#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "modchecker/modchecker.hpp"
#include "workload/heavyload.hpp"

namespace {

using namespace mc;
using namespace mc::core;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

// ---- clean pools of every size the paper used (property sweep) -----------------
class CleanPoolSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CleanPoolSweep, AllModulesAllVmsClean) {
  auto env = make_env(GetParam());
  ModChecker checker(env->hypervisor());
  for (const auto& module : env->config().load_order) {
    const auto report = checker.check_module(env->guests()[0], module);
    EXPECT_TRUE(report.subject_clean) << module;
    EXPECT_EQ(report.successes, GetParam() - 1) << module;
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, CleanPoolSweep,
                         ::testing::Values(2, 3, 5, 8, 15));

// ---- orchestrator behaviour -------------------------------------------------------
TEST(ModCheckerOrch, MissingModuleOnSubjectThrows) {
  auto env = make_env(3);
  ModChecker checker(env->hypervisor());
  EXPECT_THROW(checker.check_module(env->guests()[0], "ghost.sys"),
               NotFoundError);
}

TEST(ModCheckerOrch, MissingModuleOnPeerIsReportedNotFatal) {
  auto env = make_env(4);
  // inject.dll loaded only on Dom2.
  env->loader(env->guests()[1])
      .load("inject.dll", env->golden().file("inject.dll"));
  ModChecker checker(env->hypervisor());
  const auto report = checker.check_module(env->guests()[1], "inject.dll");
  EXPECT_EQ(report.total_comparisons, 0u);
  EXPECT_EQ(report.missing_on.size(), 3u);
  EXPECT_FALSE(report.subject_clean);  // nothing to corroborate against
}

TEST(ModCheckerOrch, ExplicitPoolSubsetIsRespected) {
  auto env = make_env(6);
  ModChecker checker(env->hypervisor());
  const std::vector<vmm::DomainId> subset = {env->guests()[2],
                                             env->guests()[4]};
  const auto report =
      checker.check_module(env->guests()[0], "hal.dll", subset);
  EXPECT_EQ(report.total_comparisons, 2u);
  ASSERT_EQ(report.comparisons.size(), 2u);
  EXPECT_EQ(report.comparisons[0].other_domain, env->guests()[2]);
  EXPECT_EQ(report.comparisons[1].other_domain, env->guests()[4]);
}

TEST(ModCheckerOrch, MajorityVoteBoundaries) {
  // t = 4 VMs: subject + 3 comparisons; clean needs n > 3/2 -> n >= 2.
  auto env = make_env(4);
  const attacks::InlineHookAttack attack;

  // One infected peer: subject still clean (2/3).
  attack.apply(*env, env->guests()[1], "hal.dll");
  ModChecker checker(env->hypervisor());
  auto report = checker.check_module(env->guests()[0], "hal.dll");
  EXPECT_EQ(report.successes, 2u);
  EXPECT_TRUE(report.subject_clean);

  // Two infected peers: subject at 1/3 -> flagged (paper: vote needs the
  // uninfected majority).
  attack.apply(*env, env->guests()[2], "hal.dll");
  report = checker.check_module(env->guests()[0], "hal.dll");
  EXPECT_EQ(report.successes, 1u);
  EXPECT_FALSE(report.subject_clean);
}

TEST(ModCheckerOrch, FlaggedItemsAreUnionAcrossComparisons) {
  auto env = make_env(4);
  // Different infections on two peers -> subject's flagged set must union
  // the item names seen mismatching anywhere.
  attacks::BytePatchAttack(0x1080, 0x01).apply(*env, env->guests()[1],
                                               "ntfs.sys");
  attacks::BytePatchAttack(0x0002, 0x01).apply(*env, env->guests()[2],
                                               "ntfs.sys");  // DOS header
  ModChecker checker(env->hypervisor());
  const auto report = checker.check_module(env->guests()[0], "ntfs.sys");
  // Subject matches only the one remaining clean peer: 1/3 < majority.
  EXPECT_FALSE(report.subject_clean);
  EXPECT_EQ(report.successes, 1u);
  ASSERT_EQ(report.flagged_items.size(), 2u);
  EXPECT_EQ(report.flagged_items[0], ".text");
  EXPECT_EQ(report.flagged_items[1], "IMAGE_DOS_HEADER");
}

// ---- parallel mode -------------------------------------------------------------------
TEST(ModCheckerParallel, VerdictsMatchSequential) {
  auto env = make_env(8);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[3], "hal.dll");

  ModCheckerConfig seq;
  ModCheckerConfig par;
  par.worker_threads = 4;

  ModChecker sequential(env->hypervisor(), seq);
  ModChecker parallel(env->hypervisor(), par);

  for (const auto subject : env->guests()) {
    const auto a = sequential.check_module(subject, "hal.dll");
    const auto b = parallel.check_module(subject, "hal.dll");
    EXPECT_EQ(a.subject_clean, b.subject_clean) << "Dom" << subject;
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.flagged_items, b.flagged_items);
    EXPECT_EQ(a.cpu_times.total(), b.cpu_times.total());
  }
}

TEST(ModCheckerParallel, WallTimeBelowCpuTime) {
  auto env = make_env(10);
  ModCheckerConfig par;
  par.worker_threads = 8;
  ModChecker checker(env->hypervisor(), par);
  const auto report = checker.check_module(env->guests()[0], "http.sys");
  EXPECT_LT(report.wall_time, report.cpu_times.total());
  EXPECT_GT(report.wall_time, 0u);
}

TEST(ModCheckerParallel, SequentialWallEqualsCpu) {
  auto env = make_env(5);
  ModChecker checker(env->hypervisor());
  const auto report = checker.check_module(env->guests()[0], "http.sys");
  EXPECT_EQ(report.wall_time, report.cpu_times.total());
}

TEST(ModCheckerParallel, ZeroWorkerThreadsRejectedAtConstruction) {
  auto env = make_env(2);
  ModCheckerConfig cfg;
  cfg.worker_threads = 0;
  EXPECT_THROW(ModChecker(env->hypervisor(), cfg), InvalidArgument);
}

TEST(ModCheckerParallel, MoreWorkersNoSlowerWall) {
  auto env = make_env(12);
  ModCheckerConfig two;
  two.worker_threads = 2;
  ModCheckerConfig eight;
  eight.worker_threads = 8;
  const auto slow =
      ModChecker(env->hypervisor(), two).check_module(env->guests()[0],
                                                      "http.sys");
  const auto fast =
      ModChecker(env->hypervisor(), eight).check_module(env->guests()[0],
                                                        "http.sys");
  EXPECT_LE(fast.wall_time, slow.wall_time);
}

// ---- pool scan --------------------------------------------------------------------------
TEST(PoolScan, LocalizesSingleInfectedVm) {
  auto env = make_env(7);
  const vmm::DomainId victim = env->guests()[4];
  attacks::InlineHookAttack{}.apply(*env, victim, "hal.dll");

  ModChecker checker(env->hypervisor());
  const auto report = checker.scan_pool("hal.dll", env->guests());
  ASSERT_EQ(report.verdicts.size(), 7u);
  for (const auto& v : report.verdicts) {
    if (v.vm == victim) {
      EXPECT_FALSE(v.clean);
      EXPECT_EQ(v.successes, 0u);
    } else {
      EXPECT_TRUE(v.clean);
      EXPECT_EQ(v.successes, 5u);  // matches all clean peers
      EXPECT_EQ(v.total, 6u);
    }
  }
}

TEST(PoolScan, SymmetricCleanPool) {
  auto env = make_env(5);
  ModChecker checker(env->hypervisor());
  const auto report = checker.scan_pool("tcpip.sys", env->guests());
  for (const auto& v : report.verdicts) {
    EXPECT_TRUE(v.clean);
    EXPECT_EQ(v.successes, v.total);
  }
  EXPECT_GT(report.wall_time, 0u);
}

TEST(PoolScan, ParallelMatchesSequentialVerdicts) {
  auto env = make_env(6);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[2], "hal.dll");
  ModCheckerConfig par;
  par.worker_threads = 8;
  const auto seq =
      ModChecker(env->hypervisor()).scan_pool("hal.dll", env->guests());
  const auto parl = ModChecker(env->hypervisor(), par)
                        .scan_pool("hal.dll", env->guests());
  ASSERT_EQ(seq.verdicts.size(), parl.verdicts.size());
  for (std::size_t i = 0; i < seq.verdicts.size(); ++i) {
    EXPECT_EQ(seq.verdicts[i].clean, parl.verdicts[i].clean);
    EXPECT_EQ(seq.verdicts[i].successes, parl.verdicts[i].successes);
  }
}

// ---- timing invariants --------------------------------------------------------------------
TEST(Timing, SearcherDominatesEveryModule) {
  auto env = make_env(5);
  // Searcher dominance (paper Fig. 7) is a property of a *cold* scan: pin
  // the paper's attach-per-check so pooled warm sessions don't mask the
  // page-wise extraction cost across the loop's later modules.
  ModCheckerConfig cfg;
  cfg.paper_faithful = true;
  ModChecker checker(env->hypervisor(), cfg);
  for (const auto& module : env->config().load_order) {
    const auto report = checker.check_module(env->guests()[0], module);
    EXPECT_GT(report.cpu_times.searcher, report.cpu_times.parser) << module;
    EXPECT_GT(report.cpu_times.searcher, report.cpu_times.checker) << module;
  }
}

TEST(Timing, RuntimeGrowsWithPoolSize) {
  auto env = make_env(10);
  ModChecker checker(env->hypervisor());
  SimNanos prev = 0;
  for (std::size_t n = 2; n <= 10; n += 2) {
    std::vector<vmm::DomainId> others(env->guests().begin() + 1,
                                      env->guests().begin() +
                                          static_cast<std::ptrdiff_t>(n));
    const auto report =
        checker.check_module(env->guests()[0], "http.sys", others);
    EXPECT_GT(report.cpu_times.total(), prev);
    prev = report.cpu_times.total();
  }
}

TEST(Timing, HeavyLoadInflatesRuntime) {
  auto env = make_env(10);
  // Contention inflation must compare equal work: pin the paper's
  // attach-per-check so the loaded run isn't quietly cheaper from warm
  // pooled sessions.
  ModCheckerConfig cfg;
  cfg.paper_faithful = true;
  ModChecker checker(env->hypervisor(), cfg);
  const auto idle = checker.check_module(env->guests()[0], "http.sys");

  workload::HeavyLoad heavyload(*env);
  heavyload.stress_guests(10);
  const auto loaded = checker.check_module(env->guests()[0], "http.sys");
  EXPECT_GT(loaded.cpu_times.total(), idle.cpu_times.total());

  // Past the 8-core knee: more than the sub-knee inflation factor.
  EXPECT_GT(static_cast<double>(loaded.cpu_times.total()),
            1.4 * static_cast<double>(idle.cpu_times.total()));
}

TEST(Timing, LargerModuleCostsMore) {
  auto env = make_env(3);
  ModChecker checker(env->hypervisor());
  const auto big = checker.check_module(env->guests()[0], "http.sys");
  const auto small = checker.check_module(env->guests()[0], "dummy.sys");
  EXPECT_GT(big.cpu_times.total(), small.cpu_times.total());
}

TEST(Timing, DeterministicAcrossRuns) {
  auto env1 = make_env(5);
  auto env2 = make_env(5);
  const auto r1 =
      ModChecker(env1->hypervisor()).check_module(env1->guests()[0],
                                                  "hal.dll");
  const auto r2 =
      ModChecker(env2->hypervisor()).check_module(env2->guests()[0],
                                                  "hal.dll");
  EXPECT_EQ(r1.cpu_times.searcher, r2.cpu_times.searcher);
  EXPECT_EQ(r1.cpu_times.parser, r2.cpu_times.parser);
  EXPECT_EQ(r1.cpu_times.checker, r2.cpu_times.checker);
}

}  // namespace
