// Tests for guest OS profiles and mixed-version clouds — the deployment
// reality behind the paper's "same version of the operating system"
// assumption.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "fallible_test_util.hpp"
#include "guestos/profile.hpp"
#include "modchecker/audit.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/searcher.hpp"
#include "vmi/session.hpp"

namespace {

using namespace mc;
using mc::test::must;
using guestos::win2003_sp1_profile;
using guestos::winxp_sp2_profile;

/// 6 guests: 0-3 run XP SP2, 4-5 run the 2003 build.
std::unique_ptr<cloud::CloudEnvironment> mixed_env() {
  cloud::CloudConfig cfg;
  cfg.guest_count = 6;
  cfg.guest_profiles[4] = &win2003_sp1_profile();
  cfg.guest_profiles[5] = &win2003_sp1_profile();
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

TEST(Profiles, LookupByVersionId) {
  EXPECT_EQ(guestos::profile_by_version(0x05010200).name, "winxp-sp2-x86");
  EXPECT_EQ(guestos::profile_by_version(0x05020100).name,
            "win2003-sp1-x86");
  EXPECT_THROW(guestos::profile_by_version(0x06000000), NotFoundError);
}

TEST(Profiles, LayoutsActuallyDiffer) {
  EXPECT_NE(winxp_sp2_profile().off_dll_base,
            win2003_sp1_profile().off_dll_base);
  EXPECT_NE(winxp_sp2_profile().ldr_entry_size,
            win2003_sp1_profile().ldr_entry_size);
}

TEST(Profiles, VmiIdentifiesGuestBuild) {
  auto env = mixed_env();
  SimClock clock;
  vmi::VmiSession xp(env->hypervisor(), env->guests()[0], clock);
  vmi::VmiSession w2k3(env->hypervisor(), env->guests()[4], clock);
  EXPECT_EQ(must(xp.try_guest_version()), winxp_sp2_profile().version_id);
  EXPECT_EQ(must(w2k3.try_guest_version()), win2003_sp1_profile().version_id);
}

TEST(Profiles, SearcherReadsBothLayoutsCorrectly) {
  auto env = mixed_env();
  for (const std::size_t idx : {std::size_t{0}, std::size_t{4}}) {
    SimClock clock;
    vmi::VmiSession session(env->hypervisor(), env->guests()[idx], clock);
    core::ModuleSearcher searcher(session);
    const auto modules = must(searcher.try_list_modules());
    ASSERT_EQ(modules.size(), env->config().load_order.size())
        << "guest " << idx;
    const auto* hal = env->loader(env->guests()[idx]).find("hal.dll");
    const auto found = must(searcher.try_find_module("hal.dll"));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->base, hal->base) << "guest " << idx;
    EXPECT_EQ(found->size_of_image, hal->size_of_image);
  }
}

TEST(Profiles, GroupingSplitsThePoolByVersion) {
  auto env = mixed_env();
  const auto groups =
      core::group_pool_by_version(env->hypervisor(), env->guests()).recognized;
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.at(winxp_sp2_profile().version_id).size(), 4u);
  EXPECT_EQ(groups.at(win2003_sp1_profile().version_id).size(), 2u);
}

TEST(Profiles, SameVersionGroupsCheckClean) {
  auto env = mixed_env();
  const auto groups =
      core::group_pool_by_version(env->hypervisor(), env->guests()).recognized;
  core::ModChecker checker(env->hypervisor());

  // The XP group (4 VMs) must self-verify clean.
  const auto& xp_pool = groups.at(winxp_sp2_profile().version_id);
  for (const auto& verdict :
       checker.scan_pool("hal.dll", xp_pool).verdicts) {
    EXPECT_TRUE(verdict.clean);
  }
  // The 2003 group (2 VMs) compares clean pairwise too.
  const auto& w2k3_pool = groups.at(win2003_sp1_profile().version_id);
  const auto report =
      checker.check_module(w2k3_pool[0], "hal.dll", {w2k3_pool[1]});
  EXPECT_TRUE(report.subject_clean);
}

TEST(Profiles, InfectionDetectedInsideAVersionGroup) {
  auto env = mixed_env();
  // Infect one XP guest; its (same-version) peers convict it.
  attacks::InlineHookAttack{}.apply(*env, env->guests()[1], "hal.dll");
  const auto groups =
      core::group_pool_by_version(env->hypervisor(), env->guests()).recognized;
  const auto& xp_pool = groups.at(winxp_sp2_profile().version_id);

  core::ModChecker checker(env->hypervisor());
  const auto scan = checker.scan_pool("hal.dll", xp_pool);
  for (const auto& verdict : scan.verdicts) {
    EXPECT_EQ(verdict.clean, verdict.vm != env->guests()[1]);
  }
}

TEST(Profiles, MixedCloudAllRuntimesStillBoot) {
  auto env = mixed_env();
  // Both builds load all drivers and keep coherent loader lists.
  for (const auto vm : env->guests()) {
    EXPECT_EQ(env->kernel(vm).read_module_list().size(),
              env->config().load_order.size());
  }
}

}  // namespace
