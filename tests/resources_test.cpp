// Tests for the PE version resource (.rsrc) and the version-spoof attack.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/version_spoof.hpp"
#include "cloud/catalog.hpp"
#include "cloud/environment.hpp"
#include "cloud/golden.hpp"
#include "modchecker/modchecker.hpp"
#include "pe/constants.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"
#include "pe/resources.hpp"

namespace {

using namespace mc;
using namespace mc::pe;

TEST(Resources, BuildParseRoundTrip) {
  VersionInfo v;
  v.file_major = 6;
  v.file_minor = 1;
  v.file_build = 7601;
  v.file_revision = 17514;
  v.product_major = 6;
  v.product_minor = 1;

  const std::uint32_t rva = 0x9000;
  const Bytes section = build_resource_section(v, rva);
  Bytes image(rva + section.size(), 0);
  std::copy(section.begin(), section.end(), image.begin() + rva);

  const auto parsed = parse_version_resource(image, rva);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, v);
}

TEST(Resources, FixedInfoRvaPointsAtSignature) {
  const VersionInfo v;
  const std::uint32_t rva = 0x4000;
  const Bytes section = build_resource_section(v, rva);
  Bytes image(rva + section.size(), 0);
  std::copy(section.begin(), section.end(), image.begin() + rva);

  const auto info_rva = find_fixed_file_info_rva(image, rva);
  ASSERT_TRUE(info_rva.has_value());
  EXPECT_EQ(load_le32(image, *info_rva), kFixedFileInfoSignature);
}

TEST(Resources, GoldenDriversCarryVersionResources) {
  const cloud::GoldenImages golden(cloud::default_catalog());
  for (const auto& [name, file] : golden.all()) {
    const Bytes mapped = map_image(file);
    const ParsedImage parsed{ByteView(mapped)};
    const auto& dir =
        parsed.optional_header().DataDirectories[kDirResource];
    ASSERT_NE(dir.VirtualAddress, 0u) << name;
    const auto version =
        parse_version_resource(mapped, dir.VirtualAddress);
    ASSERT_TRUE(version.has_value()) << name;
    EXPECT_EQ(version->file_major, 5) << name;
    EXPECT_NE(parsed.find_section(".rsrc"), nullptr) << name;
  }
}

TEST(Resources, DriversHaveDistinctRevisions) {
  const cloud::GoldenImages golden(cloud::default_catalog());
  const Bytes hal = map_image(golden.file("hal.dll"));
  const Bytes ntfs = map_image(golden.file("ntfs.sys"));
  const auto v_hal = parse_version_resource(
      hal, ParsedImage(ByteView(hal)).optional_header().DataDirectories[kDirResource]
               .VirtualAddress);
  const auto v_ntfs = parse_version_resource(
      ntfs, ParsedImage(ByteView(ntfs))
                .optional_header()
                .DataDirectories[kDirResource]
                .VirtualAddress);
  EXPECT_NE(v_hal->file_revision, v_ntfs->file_revision);
}

TEST(Resources, RsrcIsPartOfTheCheckedSurface) {
  const cloud::GoldenImages golden(cloud::default_catalog());
  const Bytes mapped = map_image(golden.file("hal.dll"));
  const ParsedImage parsed{ByteView(mapped)};
  const auto items = parsed.extract_items(vmi::GuestView(mapped));
  bool rsrc_item = false;
  for (const auto& item : items) {
    if (item.name == ".rsrc") {
      rsrc_item = true;
      EXPECT_FALSE(item.rva_sensitive);  // RVAs inside .rsrc are RVAs
    }
  }
  EXPECT_TRUE(rsrc_item);
}

TEST(Resources, VersionSpoofDetectedAsRsrcMismatch) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 4;
  cloud::CloudEnvironment env(cfg);

  const auto result =
      attacks::VersionSpoofAttack{}.apply(env, env.guests()[0], "ntfs.sys");
  EXPECT_EQ(result.expected_flagged, std::vector<std::string>{".rsrc"});

  core::ModChecker checker(env.hypervisor());
  const auto report = checker.check_module(env.guests()[0], "ntfs.sys");
  EXPECT_FALSE(report.subject_clean);
  EXPECT_EQ(report.flagged_items, std::vector<std::string>{".rsrc"});
}

TEST(Resources, SpoofedVersionReadsBack) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 2;
  cloud::CloudEnvironment env(cfg);
  attacks::VersionSpoofAttack{}.apply(env, env.guests()[0], "hal.dll");

  const auto* rec = env.loader(env.guests()[0]).find("hal.dll");
  Bytes image(rec->size_of_image, 0);
  env.kernel(env.guests()[0])
      .address_space()
      .read_virtual(rec->base, image);
  const ParsedImage parsed{ByteView(image)};
  const auto version = parse_version_resource(
      image,
      parsed.optional_header().DataDirectories[kDirResource].VirtualAddress);
  ASSERT_TRUE(version.has_value());
  EXPECT_EQ(version->file_build, 9999);  // the fake "update"
}

TEST(Resources, MissingResourceYieldsNullopt) {
  // An image built without .rsrc parses as "no version".
  Bytes fake(0x2000, 0);
  EXPECT_THROW(parse_version_resource(fake, 0x1000), FormatError);
}

}  // namespace
