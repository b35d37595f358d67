// Tests for the late-stage extensions: Pioneer-style baseline, the CRC32
// prefilter, string extraction, forensic context strings, and a per-driver
// invariant sweep over the whole catalog.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/inline_hook.hpp"
#include "attacks/stub_patch.hpp"
#include "baselines/pioneer_style.hpp"
#include "cloud/catalog.hpp"
#include "cloud/environment.hpp"
#include "fallible_test_util.hpp"
#include "modchecker/forensics.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/searcher.hpp"
#include "pe/strings.hpp"
#include "pe/validate.hpp"
#include "util/utf16.hpp"
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

// ---- Pioneer-style baseline ------------------------------------------------------
TEST(Pioneer, CleanModulePassesChallenge) {
  auto env = make_env(2);
  const baselines::PioneerStyleChecker pioneer(env->golden().all());
  for (const auto& module : env->config().load_order) {
    const auto out = pioneer.check(*env, env->guests()[0], module);
    EXPECT_FALSE(out.flagged) << module << ": " << out.detail;
  }
}

TEST(Pioneer, InfectedCodeFailsChecksum) {
  auto env = make_env(2);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  const baselines::PioneerStyleChecker pioneer(env->golden().all());
  const auto out = pioneer.check(*env, env->guests()[0], "hal.dll");
  EXPECT_TRUE(out.flagged);
  EXPECT_NE(out.detail.find("mismatch"), std::string::npos);
}

TEST(Pioneer, EvasionBustsTheDeadline) {
  auto env = make_env(2);
  const baselines::PioneerStyleChecker pioneer(env->golden().all());
  const auto out =
      pioneer.check_with_evasion(*env, env->guests()[0], "hal.dll");
  EXPECT_TRUE(out.flagged);
  EXPECT_NE(out.detail.find("deadline"), std::string::npos);
}

TEST(Pioneer, LaxParametersLetEvasionThrough) {
  auto env = make_env(2);
  baselines::PioneerParams lax;
  lax.deadline_slack = 2.0;  // sloppier than the evasion overhead (1.6x)
  const baselines::PioneerStyleChecker pioneer(env->golden().all(), lax);
  const auto out =
      pioneer.check_with_evasion(*env, env->guests()[0], "hal.dll");
  EXPECT_FALSE(out.flagged);
}

TEST(Pioneer, NeedsTrustedCopy) {
  auto env = make_env(2);
  const baselines::PioneerStyleChecker pioneer({});
  EXPECT_TRUE(pioneer.check(*env, env->guests()[0], "hal.dll").flagged);
}

// ---- string extraction -----------------------------------------------------------------
TEST(Strings, AsciiExtraction) {
  const std::string raw = std::string("\x01\x02") + "Hello, driver!" +
                          '\0' + "ok" + '\0' + "another string";
  const ByteView data(reinterpret_cast<const std::uint8_t*>(raw.data()),
                      raw.size());
  const auto strings = pe::extract_ascii_strings(data, 5);
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0].text, "Hello, driver!");
  EXPECT_EQ(strings[0].offset, 2u);
  EXPECT_EQ(strings[1].text, "another string");
}

TEST(Strings, Utf16Extraction) {
  const Bytes data = ascii_to_utf16le("BaseDllName.dll");
  const auto strings = pe::extract_utf16_strings(data, 5);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0].text, "BaseDllName.dll");
  EXPECT_EQ(strings[0].offset, 0u);
}

TEST(Strings, NearLookup) {
  std::string raw(200, '\x01');
  const std::string text = "This program cannot be run in DOS mode.";
  raw.replace(100, text.size(), text);
  const ByteView data(reinterpret_cast<const std::uint8_t*>(raw.data()),
                      raw.size());
  EXPECT_EQ(pe::string_near(data, 110), text);  // inside the string
  EXPECT_EQ(pe::string_near(data, 90), text);   // 10 bytes before
  EXPECT_EQ(pe::string_near(data, 10), "");     // too far
}

TEST(Strings, ForensicContextForStubPatch) {
  auto env = make_env(3);
  attacks::StubPatchAttack{}.apply(*env, env->guests()[0], "dummy.sys");

  SimClock clock;
  vmi::VmiSession vs(env->hypervisor(), env->guests()[0], clock);
  vmi::VmiSession rs(env->hypervisor(), env->guests()[1], clock);
  const ModuleParser parser;
  const auto sub =
      parser.parse(
          *must(ModuleSearcher(vs).try_extract_module("dummy.sys")), clock);
  const auto ref =
      parser.parse(
          *must(ModuleSearcher(rs).try_extract_module("dummy.sys")), clock);
  const auto report = analyze_divergence(sub, ref, "IMAGE_DOS_HEADER");
  EXPECT_EQ(report.classification, DivergenceClass::kHeaderField);
  EXPECT_NE(report.context_string.find("cannot be run in CHK mode"),
            std::string::npos)
      << report.context_string;
}

// ---- per-driver catalog sweep -------------------------------------------------------------
class DriverSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(DriverSweep, GoldenImageInvariants) {
  const std::string driver = GetParam();
  static const cloud::GoldenImages golden(cloud::default_catalog());
  const Bytes& file = golden.file(driver);

  // Valid per the deep validator.
  const auto validation = pe::validate_image_file(file);
  EXPECT_TRUE(validation.ok()) << pe::format_validation_report(validation);

  // Loads, checks clean across a 3-VM pool, and its extraction through
  // introspection matches the loader's record.
  cloud::CloudConfig cfg;
  cfg.guest_count = 3;
  cloud::CloudEnvironment env(cfg);
  ModChecker checker(env.hypervisor());
  const auto report = checker.check_module(env.guests()[0], driver);
  EXPECT_TRUE(report.subject_clean) << driver;
  EXPECT_EQ(report.successes, 2u);
}

INSTANTIATE_TEST_SUITE_P(Catalog, DriverSweep,
                         ::testing::Values("ntoskrnl.exe", "hal.dll",
                                           "ndis.sys", "tcpip.sys",
                                           "http.sys", "ntfs.sys",
                                           "dummy.sys"));

}  // namespace
