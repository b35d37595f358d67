// Tests for sampled comparisons and orchestrator pool hygiene.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "modchecker/modchecker.hpp"

namespace {

using namespace mc;
using namespace mc::core;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

// ---- sampled comparisons --------------------------------------------------------------
TEST(Sampling, InfectedSubjectAlwaysFlagged) {
  auto env = make_env(15);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  ModChecker checker(env->hypervisor());
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                std::size_t{7}}) {
      const auto report =
          checker.check_module_sampled(env->guests()[0], "hal.dll", k, seed);
      EXPECT_FALSE(report.subject_clean);
      EXPECT_EQ(report.total_comparisons, k);
    }
  }
}

TEST(Sampling, SampleSizeClampedToPool) {
  auto env = make_env(4);
  ModChecker checker(env->hypervisor());
  const auto report =
      checker.check_module_sampled(env->guests()[0], "hal.dll", 99, 1);
  EXPECT_EQ(report.total_comparisons, 3u);
  EXPECT_TRUE(report.subject_clean);
}

TEST(Sampling, SampleNeverContainsSubjectOrDuplicates) {
  auto env = make_env(10);
  ModChecker checker(env->hypervisor());
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto report =
        checker.check_module_sampled(env->guests()[3], "hal.dll", 5, seed);
    std::set<vmm::DomainId> seen;
    for (const auto& cmp : report.comparisons) {
      EXPECT_NE(cmp.other_domain, env->guests()[3]);
      EXPECT_TRUE(seen.insert(cmp.other_domain).second);
    }
  }
}

TEST(Sampling, DeterministicBySeed) {
  auto env = make_env(10);
  ModChecker checker(env->hypervisor());
  const auto a =
      checker.check_module_sampled(env->guests()[0], "hal.dll", 4, 42);
  const auto b =
      checker.check_module_sampled(env->guests()[0], "hal.dll", 4, 42);
  ASSERT_EQ(a.comparisons.size(), b.comparisons.size());
  for (std::size_t i = 0; i < a.comparisons.size(); ++i) {
    EXPECT_EQ(a.comparisons[i].other_domain, b.comparisons[i].other_domain);
  }
}

// ---- pool hygiene ------------------------------------------------------------------------
TEST(PoolHygiene, SubjectExcludedFromItsOwnPool) {
  auto env = make_env(4);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  ModChecker checker(env->hypervisor());
  // Pass a pool that wrongly contains the subject twice and a duplicate
  // peer: the checker must sanitize it.
  const std::vector<vmm::DomainId> messy = {
      env->guests()[0], env->guests()[1], env->guests()[1],
      env->guests()[0], env->guests()[2]};
  const auto report = checker.check_module(env->guests()[0], "hal.dll", messy);
  EXPECT_EQ(report.total_comparisons, 2u);  // Dom2, Dom3 once each
  EXPECT_FALSE(report.subject_clean);
  EXPECT_EQ(report.successes, 0u);
}

}  // namespace
