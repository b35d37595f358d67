// Tests for the forensic divergence analyzer (the post-flag "deeper
// analysis" stage).
#include <gtest/gtest.h>

#include <memory>

#include "attacks/byte_patch.hpp"
#include "attacks/dll_import_inject.hpp"
#include "attacks/header_tamper.hpp"
#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "fallible_test_util.hpp"
#include "modchecker/forensics.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/searcher.hpp"
#include "vmi/session.hpp"

namespace {

using namespace mc;
using namespace mc::core;
using mc::test::must;

class ForensicsTest : public ::testing::Test {
 protected:
  ForensicsTest() {
    cloud::CloudConfig cfg;
    cfg.guest_count = 3;
    env_ = std::make_unique<cloud::CloudEnvironment>(cfg);
  }

  ParsedModule parse_from(std::size_t guest_index,
                          const std::string& module) {
    SimClock clock;
    vmi::VmiSession session(env_->hypervisor(),
                            env_->guests()[guest_index], clock);
    ModuleSearcher searcher(session);
    const auto image = must(searcher.try_extract_module(module));
    EXPECT_TRUE(image.has_value());
    return ModuleParser().parse(*image, clock);
  }

  std::unique_ptr<cloud::CloudEnvironment> env_;
};

TEST_F(ForensicsTest, CleanPairHasNoDivergence) {
  const ParsedModule subject = parse_from(0, "hal.dll");
  const ParsedModule reference = parse_from(1, "hal.dll");
  const auto report = analyze_divergence(subject, reference, ".text");
  EXPECT_EQ(report.classification, DivergenceClass::kNone);
  EXPECT_EQ(report.differing_bytes, 0u);
  EXPECT_GT(report.rvas_adjusted, 0u);  // normalization did happen
  EXPECT_TRUE(analyze_all_flagged(subject, reference).empty());
}

TEST_F(ForensicsTest, InlineHookClassifiedAsCodeInjection) {
  attacks::InlineHookAttack{}.apply(*env_, env_->guests()[0], "hal.dll");
  const ParsedModule subject = parse_from(0, "hal.dll");
  const ParsedModule reference = parse_from(1, "hal.dll");

  const auto report = analyze_divergence(subject, reference, ".text");
  EXPECT_EQ(report.classification, DivergenceClass::kCodeInjection);
  EXPECT_GE(report.ranges.size(), 2u);  // hook site + cave payload
  EXPECT_GT(report.differing_bytes, 5u);
  // The listings must show real instructions and actually differ.
  EXPECT_FALSE(report.subject_listing.empty());
  EXPECT_FALSE(report.reference_listing.empty());
  EXPECT_NE(report.subject_listing, report.reference_listing);
}

TEST_F(ForensicsTest, SmallPatchClassifiedAsContentPatch) {
  attacks::BytePatchAttack(0x1050, 0x7F).apply(*env_, env_->guests()[0],
                                               "ntfs.sys");
  const ParsedModule subject = parse_from(0, "ntfs.sys");
  const ParsedModule reference = parse_from(1, "ntfs.sys");

  const auto report = analyze_divergence(subject, reference, ".text");
  EXPECT_EQ(report.classification, DivergenceClass::kContentPatch);
  ASSERT_EQ(report.ranges.size(), 1u);
  // If the flipped byte happens to land inside a relocated address
  // operand, the whole 4-byte window stays divergent (the adjustment
  // rightly refuses to "fix" a corrupted relocation).
  EXPECT_LE(report.ranges[0].length, 4u);
  EXPECT_GE(report.ranges[0].offset + report.ranges[0].length, 0x50u);
  EXPECT_LE(report.ranges[0].offset, 0x50u);  // .text starts at RVA 0x1000
}

TEST_F(ForensicsTest, HeaderTamperClassifiedAsHeaderField) {
  attacks::HeaderTamperAttack{}.apply(*env_, env_->guests()[0], "ntfs.sys");
  const ParsedModule subject = parse_from(0, "ntfs.sys");
  const ParsedModule reference = parse_from(1, "ntfs.sys");

  const auto reports = analyze_all_flagged(subject, reference);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].item, "IMAGE_OPTIONAL_HEADER");
  EXPECT_EQ(reports[0].classification, DivergenceClass::kHeaderField);
  EXPECT_LE(reports[0].differing_bytes, 4u);
}

TEST_F(ForensicsTest, InjectedSectionClassifiedAsStructural) {
  attacks::DllImportInjectAttack{}.apply(*env_, env_->guests()[0],
                                         "dummy.sys");
  const ParsedModule subject = parse_from(0, "dummy.sys");
  const ParsedModule reference = parse_from(1, "dummy.sys");

  const auto reports = analyze_all_flagged(subject, reference);
  EXPECT_GE(reports.size(), 4u);
  bool structural_seen = false;
  for (const auto& r : reports) {
    if (r.item == "SECTION_HEADER[.inj]") {
      EXPECT_EQ(r.classification, DivergenceClass::kStructural);
      structural_seen = true;
    }
  }
  EXPECT_TRUE(structural_seen);
}

TEST_F(ForensicsTest, FormatIncludesClassificationAndListing) {
  attacks::InlineHookAttack{}.apply(*env_, env_->guests()[0], "hal.dll");
  const auto report = analyze_divergence(parse_from(0, "hal.dll"),
                                         parse_from(1, "hal.dll"), ".text");
  const std::string text = format_forensic_report(report);
  EXPECT_NE(text.find("code-injection"), std::string::npos);
  EXPECT_NE(text.find("subject code around first difference"),
            std::string::npos);
}

}  // namespace
