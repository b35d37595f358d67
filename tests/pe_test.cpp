// Unit tests for mc_pe: header (de)serialization, builder output, mapping,
// relocations, imports/exports, Algorithm 1 item extraction.
#include <gtest/gtest.h>

#include "crypto/md5.hpp"
#include "pe/builder.hpp"
#include "pe/constants.hpp"
#include "pe/exports.hpp"
#include "pe/imports.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"
#include "pe/reloc.hpp"
#include "pe/structs.hpp"
#include "util/rng.hpp"

namespace {

using namespace mc;
using namespace mc::pe;

// ---- structs -------------------------------------------------------------------
TEST(PeStructs, DosHeaderRoundTrip) {
  DosHeader h;
  h.e_lfanew = 0x80;
  h.e_csum = 0x1234;
  Bytes out;
  h.serialize(out);
  ASSERT_EQ(out.size(), kDosHeaderSize);
  const DosHeader parsed = DosHeader::parse(out);
  EXPECT_EQ(parsed.e_magic, kDosMagic);
  EXPECT_EQ(parsed.e_lfanew, 0x80u);
  EXPECT_EQ(parsed.e_csum, 0x1234u);
}

TEST(PeStructs, FileHeaderRoundTrip) {
  FileHeader h;
  h.NumberOfSections = 6;
  h.TimeDateStamp = 0xCAFEBABE;
  h.Characteristics = kFileExecutableImage | kFileDll;
  Bytes out;
  h.serialize(out);
  ASSERT_EQ(out.size(), kFileHeaderSize);
  const FileHeader parsed = FileHeader::parse(out, 0);
  EXPECT_EQ(parsed.NumberOfSections, 6);
  EXPECT_EQ(parsed.TimeDateStamp, 0xCAFEBABEu);
  EXPECT_EQ(parsed.Characteristics, kFileExecutableImage | kFileDll);
}

TEST(PeStructs, OptionalHeaderRoundTrip) {
  OptionalHeader32 h;
  h.ImageBase = 0x00400000;
  h.AddressOfEntryPoint = 0x1234;
  h.SizeOfImage = 0x8000;
  h.DataDirectories[kDirImport] = {0x3000, 0x64};
  Bytes out;
  h.serialize(out);
  ASSERT_EQ(out.size(), kOptionalHeader32Size);
  const OptionalHeader32 parsed = OptionalHeader32::parse(out, 0);
  EXPECT_EQ(parsed.ImageBase, 0x00400000u);
  EXPECT_EQ(parsed.AddressOfEntryPoint, 0x1234u);
  EXPECT_EQ(parsed.DataDirectories[kDirImport].VirtualAddress, 0x3000u);
  EXPECT_EQ(parsed.DataDirectories[kDirImport].Size, 0x64u);
}

TEST(PeStructs, OptionalHeaderRejectsWrongMagic) {
  OptionalHeader32 h;
  Bytes out;
  h.serialize(out);
  store_le16(out, 0, 0x020B);  // PE32+ magic
  EXPECT_THROW(OptionalHeader32::parse(out, 0), FormatError);
}

TEST(PeStructs, SectionHeaderNameHandling) {
  SectionHeader h;
  h.set_name(".text");
  EXPECT_EQ(h.name(), ".text");
  h.set_name("12345678");  // exactly 8, no NUL
  EXPECT_EQ(h.name(), "12345678");
  EXPECT_THROW(h.set_name("123456789"), InvalidArgument);
}

TEST(PeStructs, SectionHeaderFlags) {
  SectionHeader h;
  h.Characteristics = kScnCntCode | kScnMemExecute | kScnMemRead;
  EXPECT_TRUE(h.is_code());
  EXPECT_FALSE(h.is_writable());
  h.Characteristics = kScnCntInitializedData | kScnMemRead | kScnMemWrite;
  EXPECT_FALSE(h.is_code());
  EXPECT_TRUE(h.is_writable());
  h.Characteristics |= kScnMemDiscardable;
  EXPECT_TRUE(h.is_discardable());
}

TEST(PeStructs, DosStubContainsMessage) {
  const Bytes stub = make_dos_stub();
  const std::string text(stub.begin(), stub.end());
  EXPECT_NE(text.find("This program cannot be run in DOS mode."),
            std::string::npos);
  EXPECT_EQ((kDosHeaderSize + stub.size()) % 8, 0u);
}

// ---- relocations -----------------------------------------------------------------
TEST(PeReloc, EncodeParseRoundTrip) {
  const std::vector<std::uint32_t> rvas = {0x1004, 0x1010, 0x2FFC, 0x3000,
                                           0x100C};
  const Bytes encoded = encode_base_relocations(rvas);
  const auto decoded = parse_base_relocations(encoded);
  std::vector<std::uint32_t> expected = rvas;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(decoded, expected);
}

TEST(PeReloc, BlocksArePerPageAndPadded) {
  // One entry on page 0x1000, two on 0x2000 -> two blocks; the odd-count
  // block is padded to keep 4-byte block sizes.
  const Bytes encoded =
      encode_base_relocations({0x1008, 0x2004, 0x2008});
  ASSERT_GE(encoded.size(), 16u);
  EXPECT_EQ(load_le32(encoded, 0), 0x1000u);
  const std::uint32_t block1_size = load_le32(encoded, 4);
  EXPECT_EQ(block1_size % 4, 0u);
  EXPECT_EQ(load_le32(encoded, block1_size), 0x2000u);
}

TEST(PeReloc, DeduplicatesFixups) {
  const Bytes encoded = encode_base_relocations({0x1004, 0x1004, 0x1004});
  EXPECT_EQ(parse_base_relocations(encoded).size(), 1u);
}

TEST(PeReloc, ApplyAddsDelta) {
  Bytes image(0x2000, 0);
  store_le32(image, 0x1004, 0x00011000);
  apply_relocations(image, {0x1004}, 0x00500000);
  EXPECT_EQ(load_le32(image, 0x1004), 0x00511000u);
}

TEST(PeReloc, ApplyNegativeDeltaWraps) {
  Bytes image(0x2000, 0);
  store_le32(image, 0x1000, 0x00411000);
  apply_relocations(image, {0x1000}, 0u - 0x00400000u);
  EXPECT_EQ(load_le32(image, 0x1000), 0x00011000u);
}

TEST(PeReloc, ApplyOutOfBoundsThrows) {
  Bytes image(0x10, 0);
  EXPECT_THROW(apply_relocations(image, {0x0E}, 1), FormatError);
}

TEST(PeReloc, ParseRejectsGarbage) {
  Bytes bad = {1, 2, 3, 4, 5, 6, 7, 8};  // block_size = garbage
  EXPECT_THROW(parse_base_relocations(bad), FormatError);
}

// Property: for random fixup sets, apply(delta) then apply(-delta) is
// identity, and encode/parse is lossless.
class RelocProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RelocProperty, RoundTripAndInverse) {
  Xoshiro256 rng(GetParam());
  Bytes image(0x10000);
  for (auto& b : image) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  std::vector<std::uint32_t> rvas;
  for (int i = 0; i < 200; ++i) {
    rvas.push_back(static_cast<std::uint32_t>(rng.below(image.size() - 4)));
  }
  const auto parsed = parse_base_relocations(encode_base_relocations(rvas));
  // Parsed set == deduplicated sorted input.
  std::vector<std::uint32_t> expected = rvas;
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  ASSERT_EQ(parsed, expected);

  const Bytes original = image;
  const std::uint32_t delta = static_cast<std::uint32_t>(rng.next());
  apply_relocations(image, parsed, delta);
  // Overlapping fixups make inversion order-dependent; with distinct,
  // possibly-overlapping rvas the inverse still holds because addition is
  // applied per-fixup in the same order.
  apply_relocations(image, parsed, 0u - delta);
  // Overlap caveat: if two fixups overlap byte ranges, add/sub do not
  // commute; filter to non-overlapping for the strict identity check.
  bool overlapping = false;
  for (std::size_t i = 1; i < parsed.size(); ++i) {
    overlapping = overlapping || parsed[i] - parsed[i - 1] < 4;
  }
  if (!overlapping) {
    EXPECT_EQ(image, original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelocProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- imports ----------------------------------------------------------------------
TEST(PeImports, BuildParseRoundTrip) {
  const std::vector<ImportDll> dlls = {
      {"ntoskrnl.exe", {"ExAllocatePoolWithTag", "KeBugCheckEx"}},
      {"hal.dll", {"HalInitSystem"}},
  };
  const std::uint32_t rva = 0x4000;
  const ImportLayout layout = build_import_section(dlls, rva);
  ASSERT_EQ(layout.iat_offsets.size(), 2u);
  EXPECT_EQ(layout.iat_offsets[0].size(), 2u);
  EXPECT_EQ(layout.descriptors_size, 3 * 20u);

  // Place the section into a fake mapped image at its RVA and parse back.
  Bytes image(rva + layout.data.size(), 0);
  std::copy(layout.data.begin(), layout.data.end(), image.begin() + rva);
  const auto parsed = parse_import_directory(image, rva);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].dll_name, "ntoskrnl.exe");
  EXPECT_EQ(parsed[0].function_names,
            (std::vector<std::string>{"ExAllocatePoolWithTag",
                                      "KeBugCheckEx"}));
  EXPECT_EQ(parsed[1].dll_name, "hal.dll");
  EXPECT_EQ(parsed[0].iat_rvas[0], rva + layout.iat_offsets[0][0]);
  EXPECT_EQ(parsed[1].name_rva != 0, true);
}

TEST(PeImports, EmptyFunctionListStillTerminates) {
  const std::vector<ImportDll> dlls = {{"empty.dll", {}}};
  const ImportLayout layout = build_import_section(dlls, 0x1000);
  Bytes image(0x1000 + layout.data.size(), 0);
  std::copy(layout.data.begin(), layout.data.end(), image.begin() + 0x1000);
  const auto parsed = parse_import_directory(image, 0x1000);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].function_names.empty());
}

// ---- exports ----------------------------------------------------------------------
TEST(PeExports, BuildParseRoundTrip) {
  std::vector<ExportedSymbol> symbols = {
      {"Zeta", 0x1100}, {"Alpha", 0x1200}, {"Mid", 0x1300}};
  const std::uint32_t rva = 0x5000;
  const Bytes data = build_export_section("hal.dll", symbols, rva);
  Bytes image(rva + data.size(), 0);
  std::copy(data.begin(), data.end(), image.begin() + rva);

  const auto parsed = parse_export_directory(image, rva);
  ASSERT_EQ(parsed.size(), 3u);
  // Name table is sorted.
  EXPECT_EQ(parsed[0].name, "Alpha");
  EXPECT_EQ(parsed[0].rva, 0x1200u);
  EXPECT_EQ(parsed[1].name, "Mid");
  EXPECT_EQ(parsed[2].name, "Zeta");
  EXPECT_EQ(parsed[2].rva, 0x1100u);
}

// ---- builder + mapper ----------------------------------------------------------------
Bytes build_test_image() {
  PeBuilder builder("test.sys");
  builder.set_image_base(0x00010000);
  Bytes text(0x600, 0x90);
  store_le32(text, 0x100, 0x00012000);  // fake absolute address -> fixup
  builder.add_section(".text", std::move(text),
                      kScnCntCode | kScnMemExecute | kScnMemRead, {0x100});
  builder.add_section(".data", Bytes(0x300, 0xDD),
                      kScnCntInitializedData | kScnMemRead | kScnMemWrite);
  builder.add_export_section({{"TestFn", 0x1000}});
  builder.add_reloc_section();
  builder.set_entry_point(0x1000);
  return builder.build();
}

TEST(PeBuilder, ProducesValidImage) {
  const Bytes file = build_test_image();
  EXPECT_EQ(load_le16(file, 0), kDosMagic);
  const DosHeader dos = DosHeader::parse(file);
  EXPECT_EQ(load_le32(file, dos.e_lfanew), kNtSignature);

  const FileHeader fh = FileHeader::parse(file, dos.e_lfanew + 4);
  EXPECT_EQ(fh.NumberOfSections, 4);  // .text .data .edata .reloc
  EXPECT_EQ(fh.Machine, kMachineI386);

  const OptionalHeader32 opt =
      OptionalHeader32::parse(file, dos.e_lfanew + kNtHeadersPrefixSize);
  EXPECT_EQ(opt.ImageBase, 0x00010000u);
  EXPECT_EQ(opt.AddressOfEntryPoint, 0x1000u);
  EXPECT_EQ(opt.SizeOfImage % kDefaultSectionAlignment, 0u);
  EXPECT_EQ(opt.BaseOfCode, 0x1000u);
  EXPECT_NE(opt.DataDirectories[kDirExport].VirtualAddress, 0u);
  EXPECT_NE(opt.DataDirectories[kDirBaseReloc].VirtualAddress, 0u);
}

TEST(PeBuilder, ChecksumIsValid) {
  const Bytes file = build_test_image();
  const DosHeader dos = DosHeader::parse(file);
  const std::size_t checksum_offset =
      dos.e_lfanew + kNtHeadersPrefixSize + 64;
  const std::uint32_t stored = load_le32(file, checksum_offset);
  EXPECT_EQ(stored, compute_pe_checksum(file, checksum_offset));
  EXPECT_NE(stored, 0u);
}

TEST(PeBuilder, SectionLayoutIsAlignedAndOrdered) {
  const Bytes file = build_test_image();
  const ParsedImage parsed{ByteView(map_image(file))};
  std::uint32_t prev_end = 0;
  for (const auto& sh : parsed.sections()) {
    EXPECT_EQ(sh.VirtualAddress % kDefaultSectionAlignment, 0u);
    EXPECT_GE(sh.VirtualAddress, prev_end);
    prev_end = sh.VirtualAddress + sh.VirtualSize;
    if (sh.SizeOfRawData != 0) {
      EXPECT_EQ(sh.PointerToRawData % kDefaultFileAlignment, 0u);
    }
  }
}

TEST(PeBuilder, NextSectionRvaPredictsLayout) {
  PeBuilder builder("x.sys");
  EXPECT_EQ(builder.next_section_rva(), 0x1000u);
  builder.add_section(".text", Bytes(0x1234, 0x90),
                      kScnCntCode | kScnMemExecute | kScnMemRead);
  EXPECT_EQ(builder.next_section_rva(), 0x3000u);  // 0x1000 + 0x2000
}

TEST(PeMapper, MapPlacesSectionsAtVirtualAddresses) {
  const Bytes file = build_test_image();
  const Bytes mapped = map_image(file);
  const ParsedImage parsed{ByteView(mapped)};
  EXPECT_EQ(mapped.size(), parsed.optional_header().SizeOfImage);

  const SectionHeader* text = parsed.find_section(".text");
  ASSERT_NE(text, nullptr);
  EXPECT_EQ(mapped[text->VirtualAddress], 0x90);
  const SectionHeader* data = parsed.find_section(".data");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(mapped[data->VirtualAddress], 0xDD);
  // Gap between raw end and next section start is zero-filled.
  EXPECT_EQ(mapped[text->VirtualAddress + 0x700], 0);
}

TEST(PeMapper, RejectsTruncatedImage) {
  const Bytes file = build_test_image();
  const Bytes truncated(file.begin(), file.begin() + 32);
  EXPECT_THROW(map_image(truncated), FormatError);
}

// ---- parser / Algorithm 1 ---------------------------------------------------------------
TEST(PeParser, RejectsBadMagics) {
  Bytes junk(0x1000, 0);
  EXPECT_THROW(ParsedImage{ByteView(junk)}, FormatError);
  Bytes mz = junk;
  store_le16(mz, 0, kDosMagic);
  store_le32(mz, 0x3C, 0x80);  // e_lfanew -> no PE signature there
  EXPECT_THROW(ParsedImage{ByteView(mz)}, FormatError);
}

TEST(PeParser, ExtractItemsCoversHeadersAndRoSections) {
  const Bytes mapped = map_image(build_test_image());
  const ParsedImage parsed{ByteView(mapped)};
  const auto items = parsed.extract_items(vmi::GuestView(mapped));

  std::vector<std::string> names;
  for (const auto& item : items) {
    names.push_back(item.name);
  }
  // Headers: DOS, NT, OPTIONAL + 4 section headers; data: .text and .edata
  // (read-only).  .data is writable and .reloc discardable: both excluded.
  EXPECT_EQ(items.size(), 3 + 4 + 2u);
  EXPECT_EQ(names[0], "IMAGE_DOS_HEADER");
  EXPECT_EQ(names[1], "IMAGE_NT_HEADER");
  EXPECT_EQ(names[2], "IMAGE_OPTIONAL_HEADER");
  EXPECT_NE(std::find(names.begin(), names.end(), "SECTION_HEADER[.data]"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), ".text"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), ".data"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), ".reloc"), names.end());
}

TEST(PeParser, OnlyCodeSectionsAreRvaSensitive) {
  const Bytes mapped = map_image(build_test_image());
  const auto items =
      ParsedImage(ByteView(mapped)).extract_items(vmi::GuestView(mapped));
  for (const auto& item : items) {
    if (item.name == ".text") {
      EXPECT_TRUE(item.rva_sensitive);
    } else {
      EXPECT_FALSE(item.rva_sensitive) << item.name;
    }
  }
}

TEST(PeParser, ItemBytesMatchImageContent) {
  const Bytes mapped = map_image(build_test_image());
  const ParsedImage parsed{ByteView(mapped)};
  for (const auto& item : parsed.extract_items(vmi::GuestView(mapped))) {
    const Bytes content = item.content_copy();
    ASSERT_LE(item.rva + content.size(), mapped.size());
    EXPECT_TRUE(std::equal(content.begin(), content.end(),
                           mapped.begin() + item.rva))
        << item.name;
  }
}

TEST(PeParser, DosHeaderItemCoversStub) {
  const Bytes mapped = map_image(build_test_image());
  const ParsedImage parsed{ByteView(mapped)};
  const auto items = parsed.extract_items(vmi::GuestView(mapped));
  const Bytes stub = items[0].content_copy();
  EXPECT_EQ(stub.size(), parsed.e_lfanew());
  const std::string text(stub.begin(), stub.end());
  EXPECT_NE(text.find("DOS mode"), std::string::npos);
}

TEST(PeParser, IntegrityCheckedSectionPredicate) {
  SectionHeader code;
  code.Characteristics = kScnCntCode | kScnMemExecute | kScnMemRead;
  EXPECT_TRUE(is_integrity_checked_section(code));

  SectionHeader rw_data;
  rw_data.Characteristics =
      kScnCntInitializedData | kScnMemRead | kScnMemWrite;
  EXPECT_FALSE(is_integrity_checked_section(rw_data));

  SectionHeader ro_data;
  ro_data.Characteristics = kScnCntInitializedData | kScnMemRead;
  EXPECT_TRUE(is_integrity_checked_section(ro_data));

  SectionHeader reloc;
  reloc.Characteristics =
      kScnCntInitializedData | kScnMemRead | kScnMemDiscardable;
  EXPECT_FALSE(is_integrity_checked_section(reloc));
}

}  // namespace
