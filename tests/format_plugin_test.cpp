// Format-plugin seam: registry detection/resolution, the CLI format
// spellings, and the PE32 differential guarantee — the plugin path must
// be byte-identical to the direct pe::ParsedImage walk it replaced
// (items, verdicts, digest-driven vote counts and simulated costs).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "modchecker/format.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/report_json.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"
#include "util/error.hpp"

namespace {

using namespace mc;
using namespace mc::core;

/// An image over `bytes`, which the caller keeps alive.
ModuleImage image_of(ByteView bytes) {
  ModuleImage image;
  image.name = "img";
  image.view = bytes;
  return image;
}

Bytes golden_pe() {
  cloud::CloudConfig cfg;
  cfg.guest_count = 1;
  const cloud::CloudEnvironment env{cfg};
  // Memory layout — the plugins parse mapped images, as acquired from a
  // guest, not disk files.
  return pe::map_image(ByteView(env.golden().file("hal.dll")));
}

Bytes golden_ko() {
  return cloud::build_ko_image(cloud::default_ko_catalog().front());
}

// ---- registry ---------------------------------------------------------------

TEST(FormatRegistry, DetectsPeAndElfMagic) {
  const auto& registry = FormatRegistry::process_default();
  ASSERT_EQ(registry.formats().size(), 2u);

  const Bytes pe = golden_pe();
  const ModuleFormat* detected = registry.detect(ByteView(pe).first(16));
  ASSERT_NE(detected, nullptr);
  EXPECT_EQ(detected->id(), ModuleFormatId::kPe32);
  EXPECT_EQ(detected->name(), "pe32");

  const Bytes ko = golden_ko();
  detected = registry.detect(ByteView(ko).first(16));
  ASSERT_NE(detected, nullptr);
  EXPECT_EQ(detected->id(), ModuleFormatId::kElf64);
  EXPECT_EQ(detected->name(), "elf64");
}

TEST(FormatRegistry, UnrecognizedMagicIsNullptrAndResolveThrows) {
  const auto& registry = FormatRegistry::process_default();
  const Bytes garbage(64, 0xAA);
  EXPECT_EQ(registry.detect(ByteView(garbage).first(16)), nullptr);
  EXPECT_THROW(registry.resolve(image_of(garbage), ModuleFormatId::kAuto),
               FormatError);
}

TEST(FormatRegistry, ExplicitFormatPinsThePlugin) {
  const auto& registry = FormatRegistry::process_default();
  const Bytes ko_bytes = golden_ko();
  const ModuleImage ko = image_of(ko_bytes);
  EXPECT_EQ(&registry.resolve(ko, ModuleFormatId::kElf64), &elf64_format());
  // A pinned plugin is returned regardless of the magic; the mismatch
  // surfaces as a FormatError at parse time.
  EXPECT_EQ(&registry.resolve(ko, ModuleFormatId::kPe32), &pe32_format());
  EXPECT_THROW(pe32_format().extract_items(ko), FormatError);
}

TEST(FormatRegistry, ResolveSniffsTinyImagesWithoutThrowingBadAccess) {
  const auto& registry = FormatRegistry::process_default();
  EXPECT_THROW(registry.resolve(image_of(Bytes{0x7F}),
                                ModuleFormatId::kAuto),
               FormatError);
  EXPECT_THROW(registry.resolve(image_of(Bytes{}), ModuleFormatId::kAuto),
               FormatError);
}

TEST(FormatNames, CliSpellingsRoundTrip) {
  EXPECT_EQ(parse_module_format("auto"), ModuleFormatId::kAuto);
  EXPECT_EQ(parse_module_format("pe32"), ModuleFormatId::kPe32);
  EXPECT_EQ(parse_module_format("elf64"), ModuleFormatId::kElf64);
  EXPECT_THROW(parse_module_format("coff"), InvalidArgument);
  for (const ModuleFormatId id :
       {ModuleFormatId::kAuto, ModuleFormatId::kPe32, ModuleFormatId::kElf64}) {
    EXPECT_EQ(parse_module_format(to_string(id)), id);
  }
}

TEST(FormatPolicies, PluginsCarryTheirLoaderRecipes) {
  const FixupPolicy pe = pe32_format().fixup_policy();
  EXPECT_EQ(pe.width, 4u);
  EXPECT_EQ(pe.alt_width, 0u);
  EXPECT_EQ(pe.base_bias, 0u);

  const FixupPolicy elf = elf64_format().fixup_policy();
  EXPECT_EQ(elf.width, 8u);
  EXPECT_EQ(elf.alt_width, 4u);
  EXPECT_EQ(elf.base_bias, 0xFFFFFFFF00000000ull);
}

// ---- PE differential: plugin vs direct ParsedImage walk ---------------------

TEST(PeDifferential, PluginItemsMatchDirectParserByteForByte) {
  const Bytes file = golden_pe();
  const ModuleImage image = image_of(file);
  const auto plugin_items = pe32_format().extract_items(image);

  const ByteView mapped{file};
  const pe::ParsedImage parsed{mapped};
  const auto direct_items = parsed.extract_items(mapped);

  ASSERT_EQ(plugin_items.size(), direct_items.size());
  for (std::size_t i = 0; i < plugin_items.size(); ++i) {
    const IntegrityItem& a = plugin_items[i];
    const IntegrityItem& b = direct_items[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.rva, b.rva) << i;
    EXPECT_EQ(a.rva_sensitive, b.rva_sensitive) << i;
    EXPECT_EQ(a.content_copy(), b.content_copy()) << a.name;
  }
}

TEST(PeDifferential, AutoAndPinnedScansAreReportIdentical) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 5;
  const cloud::CloudEnvironment env{cfg};

  ModCheckerConfig auto_cfg;  // kAuto is the default
  ModCheckerConfig pinned_cfg;
  pinned_cfg.format = ModuleFormatId::kPe32;

  ModChecker auto_checker(env.hypervisor(), auto_cfg);
  ModChecker pinned_checker(env.hypervisor(), pinned_cfg);
  const auto a = auto_checker.scan_pool("hal.dll", env.guests());
  const auto b = pinned_checker.scan_pool("hal.dll", env.guests());

  // The serialized reports carry verdicts, per-stage simulated costs and
  // the fast-path counters — byte equality covers all of it.
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(a.fastpath_pairs, 10u);  // clean C(5,2)
  for (const auto& verdict : a.verdicts) {
    EXPECT_TRUE(verdict.clean);
  }
}

TEST(PeDifferential, ElfPinOnPePoolFlagsEveryCopyInsteadOfThrowing) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 3;
  const cloud::CloudEnvironment env{cfg};
  ModCheckerConfig pinned;
  pinned.format = ModuleFormatId::kElf64;
  ModChecker checker(env.hypervisor(), pinned);
  const auto report = checker.scan_pool("hal.dll", env.guests());
  ASSERT_EQ(report.verdicts.size(), 3u);
  for (const auto& verdict : report.verdicts) {
    EXPECT_FALSE(verdict.clean);  // every copy is a parse failure
  }
}

}  // namespace
