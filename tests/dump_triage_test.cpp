// Tests for offline dump analysis and the EAT-hook extension attack.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/eat_hook.hpp"
#include "attacks/inline_hook.hpp"
#include "cloud/catalog.hpp"
#include "cloud/environment.hpp"
#include "fallible_test_util.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/searcher.hpp"
#include "pe/parser.hpp"
#include "vmi/dump.hpp"
#include "vmi/session.hpp"

namespace {

using namespace mc;
using mc::test::must;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

// ---- EAT hook ------------------------------------------------------------------
TEST(EatHook, DetectedViaReadOnlyEdata) {
  auto env = make_env(4);
  const auto result =
      attacks::EatHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  EXPECT_TRUE(result.detectable_by_modchecker);

  core::ModChecker checker(env->hypervisor());
  const auto report = checker.check_module(env->guests()[0], "hal.dll");
  EXPECT_FALSE(report.subject_clean);
  EXPECT_EQ(report.flagged_items, std::vector<std::string>{".edata"});
}

TEST(EatHook, RequiresExports) {
  auto env = make_env(2);
  // dummy.sys exports nothing.
  EXPECT_THROW(
      attacks::EatHookAttack{}.apply(*env, env->guests()[0], "dummy.sys"),
      InvalidArgument);
}

// ---- memory dumps ---------------------------------------------------------------
TEST(Dump, RoundTripPreservesIntrospectionView) {
  auto env = make_env(2);
  const vmm::DomainId guest = env->guests()[0];
  const Bytes dump = vmi::dump_domain(env->hypervisor(), guest);
  ASSERT_GT(dump.size(), vmm::kFrameSize);

  const vmi::DumpAnalysis analysis(dump);
  SimClock live_clock;
  SimClock dump_clock;
  vmi::VmiSession live(env->hypervisor(), guest, live_clock);
  vmi::VmiSession offline(analysis.hypervisor(), analysis.domain_id(),
                          dump_clock);

  // The module list seen through the dump equals the live view.
  const auto live_mods = must(core::ModuleSearcher(live).try_list_modules());
  const auto dump_mods = must(core::ModuleSearcher(offline).try_list_modules());
  ASSERT_EQ(live_mods.size(), dump_mods.size());
  for (std::size_t i = 0; i < live_mods.size(); ++i) {
    EXPECT_EQ(live_mods[i].name, dump_mods[i].name);
    EXPECT_EQ(live_mods[i].base, dump_mods[i].base);
  }

  // Whole-module extraction is byte-identical.
  const auto live_img =
      must(core::ModuleSearcher(live).try_extract_module("hal.dll"));
  const auto dump_img =
      must(core::ModuleSearcher(offline).try_extract_module("hal.dll"));
  ASSERT_TRUE(live_img && dump_img);
  EXPECT_EQ(live_img->view.materialize(), dump_img->view.materialize());
}

TEST(Dump, CapturesInfectionEvidence) {
  auto env = make_env(3);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  const Bytes dump = vmi::dump_domain(env->hypervisor(), env->guests()[0]);

  // Revert the live guest — the dump must still hold the evidence.
  env->snapshot_all();  // (snapshot of the infected state, fine for test)
  const vmi::DumpAnalysis analysis(dump);
  SimClock clock;
  vmi::VmiSession session(analysis.hypervisor(), analysis.domain_id(), clock);
  const auto image =
      must(core::ModuleSearcher(session).try_extract_module("hal.dll"));
  ASSERT_TRUE(image.has_value());
  // The entry has the 0xE9 hook (attack writes a jmp at the entry point).
  const pe::ParsedImage parsed(image->view);
  EXPECT_EQ(image->view.byte_at(parsed.optional_header().AddressOfEntryPoint),
            0xE9);
}

TEST(Dump, RejectsGarbage) {
  const Bytes tiny = {1, 2, 3};
  EXPECT_THROW(vmi::DumpAnalysis{tiny}, FormatError);
  const Bytes zeros(64, 0);
  EXPECT_THROW(vmi::DumpAnalysis{zeros}, FormatError);
}

TEST(Dump, RejectsTruncation) {
  auto env = make_env(1);
  Bytes dump = vmi::dump_domain(env->hypervisor(), env->guests()[0]);
  dump.resize(dump.size() - 100);
  EXPECT_THROW(vmi::DumpAnalysis{dump}, FormatError);
}

}  // namespace
