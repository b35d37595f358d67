// Unit tests for the ModChecker pipeline components: Module-Searcher,
// Module-Parser, Integrity-Checker (paper Fig. 1).
#include <gtest/gtest.h>

#include <memory>

#include "cloud/environment.hpp"
#include "fallible_test_util.hpp"
#include "modchecker/checker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/searcher.hpp"
#include "vmi/session.hpp"

namespace {

using namespace mc;
using namespace mc::core;
using mc::test::must;

class CoreComponentsTest : public ::testing::Test {
 protected:
  CoreComponentsTest() {
    cloud::CloudConfig cfg;
    cfg.guest_count = 3;
    env_ = std::make_unique<cloud::CloudEnvironment>(cfg);
  }

  vmi::VmiSession session(std::size_t guest_index) {
    return vmi::VmiSession(env_->hypervisor(),
                           env_->guests()[guest_index], clock_);
  }

  std::unique_ptr<cloud::CloudEnvironment> env_;
  SimClock clock_;
};

// ---- Module-Searcher -------------------------------------------------------------
TEST_F(CoreComponentsTest, ListModulesMatchesLoaderState) {
  auto s = session(0);
  ModuleSearcher searcher(s);
  const auto modules = must(searcher.try_list_modules());
  const auto& expected = env_->loader(env_->guests()[0]).loaded();
  ASSERT_EQ(modules.size(), expected.size());
  for (std::size_t i = 0; i < modules.size(); ++i) {
    EXPECT_EQ(modules[i].name, expected[i].name);
    EXPECT_EQ(modules[i].base, expected[i].base);
    EXPECT_EQ(modules[i].size_of_image, expected[i].size_of_image);
    EXPECT_EQ(modules[i].entry_point, expected[i].entry_point);
  }
}

TEST_F(CoreComponentsTest, FindModuleIsCaseInsensitive) {
  auto s = session(0);
  ModuleSearcher searcher(s);
  const auto found = must(searcher.try_find_module("HTTP.SYS"));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->name, "http.sys");
}

TEST_F(CoreComponentsTest, FindMissingModuleReturnsNothing) {
  auto s = session(0);
  ModuleSearcher searcher(s);
  EXPECT_FALSE(must(searcher.try_find_module("rootkit.sys")).has_value());
  EXPECT_FALSE(must(searcher.try_extract_module("rootkit.sys")).has_value());
}

TEST_F(CoreComponentsTest, ExtractCopiesWholeImage) {
  auto s = session(0);
  ModuleSearcher searcher(s);
  const auto image = must(searcher.try_extract_module("hal.dll"));
  ASSERT_TRUE(image.has_value());

  const auto* rec = env_->loader(env_->guests()[0]).find("hal.dll");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(image->base, rec->base);
  EXPECT_EQ(image->size(), rec->size_of_image);
  EXPECT_EQ(image->domain, env_->guests()[0]);

  Bytes direct(rec->size_of_image, 0);
  env_->kernel(env_->guests()[0])
      .address_space()
      .read_virtual(rec->base, direct);
  EXPECT_EQ(image->view.materialize(), direct);
}

TEST_F(CoreComponentsTest, SearchStopsEarlyOnMatch) {
  // Searching the first module must read fewer pages than searching the
  // last one (the paper's searcher walks FLINK until the name matches).
  SimClock c1;
  {
    vmi::VmiSession s(env_->hypervisor(), env_->guests()[0], c1);
    must(ModuleSearcher(s).try_find_module("ntoskrnl.exe"));
  }
  SimClock c2;
  {
    vmi::VmiSession s(env_->hypervisor(), env_->guests()[0], c2);
    must(ModuleSearcher(s).try_find_module("dummy.sys"));
  }
  EXPECT_LT(c1.now(), c2.now());
}

// ---- Module-Parser ----------------------------------------------------------------
TEST_F(CoreComponentsTest, ParserProducesItemsAndChargesTime) {
  auto s = session(0);
  ModuleSearcher searcher(s);
  const auto image = must(searcher.try_extract_module("http.sys"));
  ASSERT_TRUE(image.has_value());

  SimClock parse_clock;
  const ModuleParser parser;
  const ParsedModule parsed = parser.parse(*image, parse_clock);
  EXPECT_EQ(parsed.name, "http.sys");
  EXPECT_EQ(parsed.base, image->base);
  EXPECT_EQ(parsed.domain, image->domain);
  EXPECT_GT(parsed.items.size(), 6u);
  EXPECT_GT(parse_clock.now(), 0u);
}

TEST_F(CoreComponentsTest, ParserRejectsCorruptImage) {
  auto s = session(0);
  ModuleSearcher searcher(s);
  auto image = must(searcher.try_extract_module("dummy.sys"));
  ASSERT_TRUE(image.has_value());
  Bytes corrupt = image->view.materialize();
  corrupt[0] = 'X';  // destroy MZ magic
  image->view = ByteView(corrupt);

  SimClock parse_clock;
  const ModuleParser parser;
  EXPECT_THROW(parser.parse(*image, parse_clock), FormatError);
}

// ---- Integrity-Checker ---------------------------------------------------------------
TEST_F(CoreComponentsTest, CrossVmComparisonMatchesDespiteDifferentBases) {
  const ModuleParser parser;
  SimClock pc;

  auto s0 = session(0);
  auto s1 = session(1);
  const auto img0 = must(ModuleSearcher(s0).try_extract_module("http.sys"));
  const auto img1 = must(ModuleSearcher(s1).try_extract_module("http.sys"));
  ASSERT_TRUE(img0 && img1);
  ASSERT_NE(img0->base, img1->base);  // relocation really happened

  const ParsedModule p0 = parser.parse(*img0, pc);
  const ParsedModule p1 = parser.parse(*img1, pc);

  // Raw .text bytes differ before adjustment...
  const auto* text0 = &p0.items.back();
  for (const auto& item : p0.items) {
    if (item.name == ".text") {
      text0 = &item;
    }
  }
  const core::IntegrityItem* text1 = nullptr;
  for (const auto& item : p1.items) {
    if (item.name == ".text") {
      text1 = &item;
    }
  }
  ASSERT_NE(text1, nullptr);
  EXPECT_NE(text0->content_copy(), text1->content_copy());

  // ...but the checker normalizes and every item matches.
  const IntegrityChecker checker;
  SimClock cc;
  const PairComparison cmp = checker.compare(p0, p1, cc);
  EXPECT_TRUE(cmp.all_match);
  for (const auto& item : cmp.items) {
    EXPECT_TRUE(item.match) << item.item_name;
    if (item.item_name == ".text") {
      EXPECT_GT(item.rvas_adjusted, 0u);
      EXPECT_EQ(item.unresolved_diffs, 0u);
    }
  }
  EXPECT_GT(cc.now(), 0u);
}

TEST_F(CoreComponentsTest, CompareDoesNotMutateInputs) {
  const ModuleParser parser;
  SimClock pc;
  auto s0 = session(0);
  auto s1 = session(1);
  const ParsedModule p0 =
      parser.parse(*must(ModuleSearcher(s0).try_extract_module("hal.dll")), pc);
  const ParsedModule p1 =
      parser.parse(*must(ModuleSearcher(s1).try_extract_module("hal.dll")), pc);

  const Bytes before0 = p0.items.back().content_copy();
  const IntegrityChecker checker;
  SimClock cc;
  checker.compare(p0, p1, cc);
  EXPECT_EQ(p0.items.back().content_copy(), before0);

  // Repeat comparison must yield the same result (pristine copies).
  const auto again = checker.compare(p0, p1, cc);
  EXPECT_TRUE(again.all_match);
}

TEST_F(CoreComponentsTest, StructuralDivergenceFlagsUnmatchedItems) {
  const ModuleParser parser;
  SimClock pc;
  auto s0 = session(0);
  auto s1 = session(1);
  ParsedModule p0 =
      parser.parse(*must(ModuleSearcher(s0).try_extract_module("hal.dll")), pc);
  ParsedModule p1 =
      parser.parse(*must(ModuleSearcher(s1).try_extract_module("hal.dll")), pc);

  // Simulate an attacker-added section on the subject.
  core::IntegrityItem extra;
  extra.kind = core::ItemKind::kSectionData;
  extra.name = ".evil";
  const Bytes evil = {1, 2, 3};
  extra.view = ByteView(evil);
  p0.items.push_back(extra);

  const IntegrityChecker checker;
  SimClock cc;
  const auto cmp = checker.compare(p0, p1, cc);
  EXPECT_FALSE(cmp.all_match);
  bool evil_flagged = false;
  for (const auto& item : cmp.items) {
    if (item.item_name == ".evil") {
      EXPECT_FALSE(item.match);
      evil_flagged = true;
    }
  }
  EXPECT_TRUE(evil_flagged);
}

TEST_F(CoreComponentsTest, AlgorithmChoiceChangesDigestWidth) {
  const ModuleParser parser;
  SimClock pc;
  auto s0 = session(0);
  auto s1 = session(1);
  const ParsedModule p0 =
      parser.parse(
          *must(ModuleSearcher(s0).try_extract_module("dummy.sys")), pc);
  const ParsedModule p1 =
      parser.parse(
          *must(ModuleSearcher(s1).try_extract_module("dummy.sys")), pc);

  SimClock cc;
  const auto md5_cmp = IntegrityChecker(crypto::HashAlgorithm::kMd5)
                           .compare(p0, p1, cc);
  const auto sha_cmp = IntegrityChecker(crypto::HashAlgorithm::kSha256)
                           .compare(p0, p1, cc);
  EXPECT_EQ(md5_cmp.items[0].digest_subject.size(), 16u);
  EXPECT_EQ(sha_cmp.items[0].digest_subject.size(), 32u);
  EXPECT_TRUE(md5_cmp.all_match);
  EXPECT_TRUE(sha_cmp.all_match);
}

}  // namespace
