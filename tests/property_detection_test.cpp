// Property suite for the paper's central claim: "ModChecker is able to
// detect ANY change in a kernel module's headers and executable content".
//
// For every module and every integrity-item class, a single byte inside
// the item is flipped in one guest's memory; ModChecker must flag that VM
// and attribute the mismatch to the right item.  Symmetrically, changes
// to the *excluded* surfaces (writable .data, discardable .reloc) must not
// raise a flag — they are outside the detection contract.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/byte_patch.hpp"
#include "cloud/environment.hpp"
#include "fallible_test_util.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/searcher.hpp"
#include "pe/parser.hpp"
#include "vmi/session.hpp"

namespace {

using namespace mc;
using mc::test::must;

/// How strictly the flagged-item set must match.
enum class Expect {
  kExact,     // flagged == { item } (pure content changes)
  kContains,  // item is flagged; cascades allowed (a corrupted section
              // header also changes how its section data is extracted)
  kAnyFlag,   // corrupting structural fields may leave the module
              // unparseable, reported as MODULE_UNPARSEABLE instead
};

struct PatchCase {
  const char* module;
  const char* item;     // integrity item that must be flagged
  double position;      // relative offset within the item [0, 1)
  Expect expect = Expect::kExact;
};

void PrintTo(const PatchCase& c, std::ostream* os) {
  *os << c.module << ":" << c.item << "@" << c.position;
}

class DetectAnyChange : public ::testing::TestWithParam<PatchCase> {
 protected:
  DetectAnyChange() {
    cloud::CloudConfig cfg;
    cfg.guest_count = 4;
    env_ = std::make_unique<cloud::CloudEnvironment>(cfg);
  }

  /// Finds the guest-image RVA range of an item by parsing the victim's
  /// module the same way the checker does.
  core::IntegrityItem find_item(const std::string& module,
                              const std::string& item_name) {
    SimClock clock;
    vmi::VmiSession session(env_->hypervisor(), env_->guests()[0], clock);
    core::ModuleSearcher searcher(session);
    const auto image = must(searcher.try_extract_module(module));
    EXPECT_TRUE(image.has_value());
    const core::ModuleParser parser;
    for (auto& item : parser.parse(*image, clock).items) {
      if (item.name == item_name) {
        return item;
      }
    }
    ADD_FAILURE() << "no item " << item_name << " in " << module;
    return {};
  }

  std::unique_ptr<cloud::CloudEnvironment> env_;
};

TEST_P(DetectAnyChange, SingleByteFlipIsAttributedToTheRightItem) {
  const PatchCase& c = GetParam();
  const core::IntegrityItem item = find_item(c.module, c.item);
  ASSERT_GT(item.content_size(), 0u);

  const auto rva = item.rva + static_cast<std::uint32_t>(
                                  c.position *
                                  static_cast<double>(item.content_size()));
  attacks::BytePatchAttack(rva, 0xA5).apply(*env_, env_->guests()[0],
                                            c.module);

  core::ModChecker checker(env_->hypervisor());
  const auto report = checker.check_module(env_->guests()[0], c.module);
  EXPECT_FALSE(report.subject_clean);
  ASSERT_FALSE(report.flagged_items.empty());
  const auto& flagged = report.flagged_items;
  const bool has_item =
      std::find(flagged.begin(), flagged.end(), c.item) != flagged.end();
  switch (c.expect) {
    case Expect::kExact:
      EXPECT_EQ(flagged, std::vector<std::string>{c.item});
      break;
    case Expect::kContains:
      EXPECT_TRUE(has_item);
      break;
    case Expect::kAnyFlag:
      EXPECT_TRUE(has_item ||
                  std::find(flagged.begin(), flagged.end(),
                            core::ModChecker::kUnparseableItem) !=
                      flagged.end());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModulesAllItems, DetectAnyChange,
    ::testing::Values(
        // DOS header + stub (E3's surface).  Offset 0 destroys the MZ
        // magic itself -> module may become unparseable, which is also a
        // (stronger) detection.
        PatchCase{"hal.dll", "IMAGE_DOS_HEADER", 0.0, Expect::kAnyFlag},
        PatchCase{"hal.dll", "IMAGE_DOS_HEADER", 0.9},
        PatchCase{"dummy.sys", "IMAGE_DOS_HEADER", 0.5},
        // NT header: corrupting NumberOfSections & co. can break the walk.
        PatchCase{"hal.dll", "IMAGE_NT_HEADER", 0.3, Expect::kAnyFlag},
        PatchCase{"http.sys", "IMAGE_NT_HEADER", 0.8},
        // Optional header, incl. the data directories tail.
        PatchCase{"hal.dll", "IMAGE_OPTIONAL_HEADER", 0.1,
                  Expect::kAnyFlag},
        PatchCase{"ntfs.sys", "IMAGE_OPTIONAL_HEADER", 0.95},
        // Section headers: a corrupted VirtualSize/VirtualAddress also
        // changes what gets extracted as that section's data (cascade).
        PatchCase{"hal.dll", "SECTION_HEADER[.text]", 0.2,
                  Expect::kContains},
        PatchCase{"tcpip.sys", "SECTION_HEADER[.data]", 0.5,
                  Expect::kContains},
        PatchCase{"http.sys", "SECTION_HEADER[.reloc]", 0.7,
                  Expect::kContains},
        // Executable content at many positions (E1/E2's surface).
        PatchCase{"hal.dll", ".text", 0.01},
        PatchCase{"hal.dll", ".text", 0.37},
        PatchCase{"hal.dll", ".text", 0.99},
        PatchCase{"http.sys", ".text", 0.5},
        PatchCase{"ntoskrnl.exe", ".text", 0.66},
        PatchCase{"dummy.sys", ".text", 0.25},
        // Read-only data is part of the checked surface too.
        PatchCase{"hal.dll", ".rdata", 0.4},
        PatchCase{"ntfs.sys", ".rdata", 0.8}));

// ---- the excluded surfaces ------------------------------------------------------------
class ExcludedSurface : public ::testing::TestWithParam<const char*> {};

TEST_P(ExcludedSurface, WritableDataChangesAreNotFlagged) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 4;
  cloud::CloudEnvironment env(cfg);
  const std::string module = GetParam();

  // Locate .data within the victim's image and flip a byte mid-section.
  SimClock clock;
  vmi::VmiSession session(env.hypervisor(), env.guests()[0], clock);
  const auto image =
      must(core::ModuleSearcher(session).try_extract_module(module));
  ASSERT_TRUE(image.has_value());
  const pe::ParsedImage parsed(image->view);
  const auto* data = parsed.find_section(".data");
  ASSERT_NE(data, nullptr);

  attacks::BytePatchAttack(data->VirtualAddress + data->VirtualSize / 2, 0x5A)
      .apply(env, env.guests()[0], module);

  core::ModChecker checker(env.hypervisor());
  const auto report = checker.check_module(env.guests()[0], module);
  EXPECT_TRUE(report.subject_clean)
      << module << ": writable .data must be outside the checked surface";
  EXPECT_TRUE(report.flagged_items.empty());
}

INSTANTIATE_TEST_SUITE_P(Modules, ExcludedSurface,
                         ::testing::Values("hal.dll", "http.sys",
                                           "ntfs.sys"));

// ---- multi-position .text fuzz (denser sweep on the E1/E2 surface) -------------------
class TextFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TextFuzz, EveryTextOffsetClassIsCaught) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 3;
  cfg.base_seed = static_cast<std::uint64_t>(GetParam()) * 17 + 3;
  cloud::CloudEnvironment env(cfg);

  SimClock clock;
  vmi::VmiSession session(env.hypervisor(), env.guests()[0], clock);
  const auto image =
      must(core::ModuleSearcher(session).try_extract_module("tcpip.sys"));
  ASSERT_TRUE(image.has_value());
  const pe::ParsedImage parsed(image->view);
  const auto* text = parsed.find_section(".text");
  ASSERT_NE(text, nullptr);

  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  const auto rva = text->VirtualAddress +
                   static_cast<std::uint32_t>(rng.below(text->VirtualSize));
  const auto mask = static_cast<std::uint8_t>(rng.range(1, 255));
  attacks::BytePatchAttack(rva, mask).apply(env, env.guests()[0],
                                            "tcpip.sys");

  core::ModChecker checker(env.hypervisor());
  const auto report = checker.check_module(env.guests()[0], "tcpip.sys");
  EXPECT_FALSE(report.subject_clean)
      << "rva=" << rva << " mask=" << int{mask};
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextFuzz, ::testing::Range(0, 12));

}  // namespace
