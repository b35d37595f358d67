// ELF64 format layer: struct (de)serialization round-trips, the KoBuilder
// → ElfImage walk, Algorithm-1 item extraction, the insmod-style loader's
// relocation math, and the plugin's detect/extract surface — plus the
// pairwise fixup normalization that makes two differently-based loads of
// the same .ko hash-identical again.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cloud/linux.hpp"
#include "elf/builder.hpp"
#include "elf/constants.hpp"
#include "elf/loader.hpp"
#include "elf/parser.hpp"
#include "elf/structs.hpp"
#include "modchecker/format.hpp"
#include "modchecker/rva_adjust.hpp"
#include "util/error.hpp"

namespace {

using namespace mc;
using namespace mc::elf;

Bytes tiny_ko() {
  KoBuilder builder("tiny");
  Bytes text(0x100, 0x90);
  for (std::size_t i = 0x40; i < 0x48; ++i) {
    text[i] = 0;  // the 8-byte fixup slot
  }
  builder.add_section(".text", std::move(text), kShfAlloc | kShfExecinstr);
  builder.add_section(".rodata", Bytes(0x40, 0x52), kShfAlloc);
  builder.add_section(".data", Bytes(0x20, 0x44), kShfAlloc | kShfWrite);
  builder.add_symbol("init_module", ".text", 0x10);
  builder.add_rela(".text", 0x40, kRX8664_64, "init_module", 0x8);
  return builder.build();
}

// ---- structs ----------------------------------------------------------------

TEST(ElfStructs, EhdrRoundTrips) {
  Elf64Ehdr ehdr;
  ehdr.e_shoff = 0x1234;
  ehdr.e_shnum = 7;
  ehdr.e_shstrndx = 6;
  Bytes out;
  ehdr.serialize(out);
  ASSERT_EQ(out.size(), kEhdrSize);
  const Elf64Ehdr back = Elf64Ehdr::parse(ByteView(out));
  EXPECT_TRUE(back.magic_ok());
  EXPECT_EQ(back.e_type, kEtRel);
  EXPECT_EQ(back.e_machine, kEmX8664);
  EXPECT_EQ(back.e_shoff, 0x1234u);
  EXPECT_EQ(back.e_shnum, 7u);
  EXPECT_EQ(back.e_shstrndx, 6u);
}

TEST(ElfStructs, ShdrSymRelaRoundTrip) {
  Elf64Shdr sh;
  sh.sh_name = 11;
  sh.sh_type = kShtProgbits;
  sh.sh_flags = kShfAlloc | kShfExecinstr;
  sh.sh_addr = 0x40;
  sh.sh_offset = 0x40;
  sh.sh_size = 0x100;
  Bytes out;
  sh.serialize(out);
  ASSERT_EQ(out.size(), kShdrSize);
  const Elf64Shdr sh2 = Elf64Shdr::parse(ByteView(out), 0);
  EXPECT_TRUE(sh2.is_code());
  EXPECT_TRUE(sh2.is_alloc());
  EXPECT_FALSE(sh2.is_writable());
  EXPECT_EQ(sh2.sh_size, 0x100u);

  Elf64Sym sym;
  sym.st_name = 1;
  sym.st_info = elf_st_info(kStbGlobal, kSttFunc);
  sym.st_shndx = 1;
  sym.st_value = 0x10;
  out.clear();
  sym.serialize(out);
  ASSERT_EQ(out.size(), kSymSize);
  const Elf64Sym sym2 = Elf64Sym::parse(ByteView(out), 0);
  EXPECT_EQ(sym2.st_value, 0x10u);
  EXPECT_EQ(sym2.st_shndx, 1u);

  Elf64Rela rela;
  rela.r_offset = 0x40;
  rela.r_info = Elf64Rela::make_info(3, kRX8664_64);
  rela.r_addend = -8;
  out.clear();
  rela.serialize(out);
  ASSERT_EQ(out.size(), kRelaSize);
  const Elf64Rela rela2 = Elf64Rela::parse(ByteView(out), 0);
  EXPECT_EQ(rela2.symbol(), 3u);
  EXPECT_EQ(rela2.type(), kRX8664_64);
  EXPECT_EQ(rela2.r_addend, -8);
}

// ---- builder → parser -------------------------------------------------------

TEST(ElfBuilder, BuildsParsableMappedImage) {
  const Bytes ko = tiny_ko();
  const ElfImage image{ByteView(ko)};

  EXPECT_TRUE(image.header().magic_ok());
  // [0]=null, .text, .rodata, .data, .rela.text, .symtab, .strtab, .shstrtab
  ASSERT_EQ(image.sections().size(), 8u);
  const Elf64Shdr* text = image.find_section(".text");
  ASSERT_NE(text, nullptr);
  EXPECT_TRUE(text->is_code());
  EXPECT_EQ(text->sh_addr, text->sh_offset);  // mapped layout
  EXPECT_EQ(text->sh_size, 0x100u);

  const Elf64Shdr* rela = image.find_section(".rela.text");
  ASSERT_NE(rela, nullptr);
  EXPECT_EQ(rela->sh_type, kShtRela);
  EXPECT_EQ(rela->sh_size, kRelaSize);

  EXPECT_NE(image.find_section(".symtab"), nullptr);
  EXPECT_NE(image.find_section(".shstrtab"), nullptr);
  EXPECT_EQ(image.find_section(".missing"), nullptr);
}

TEST(ElfParser, IntegrityCheckedSetExcludesWritableAndNobits) {
  Elf64Shdr sh;
  sh.sh_type = kShtProgbits;
  sh.sh_flags = kShfAlloc;
  EXPECT_TRUE(is_integrity_checked_section(sh));
  sh.sh_flags = kShfAlloc | kShfWrite;
  EXPECT_FALSE(is_integrity_checked_section(sh));
  sh.sh_flags = 0;  // not resident
  EXPECT_FALSE(is_integrity_checked_section(sh));
  sh.sh_flags = kShfAlloc;
  sh.sh_type = kShtNobits;
  EXPECT_FALSE(is_integrity_checked_section(sh));
}

TEST(ElfParser, ExtractItemsDecomposesHeadersAndReadOnlySections) {
  const Bytes ko = tiny_ko();
  const ElfImage image{ByteView(ko)};
  const auto items = image.extract_items(vmi::GuestView(ko));

  ASSERT_FALSE(items.empty());
  EXPECT_EQ(items[0].kind, core::ItemKind::kElfHeader);
  EXPECT_EQ(items[0].name, "ELF64_EHDR");
  EXPECT_EQ(items[0].content_size(), kEhdrSize);

  std::size_t shdr_items = 0;
  bool saw_text = false, saw_data = false, saw_rela = false;
  for (const auto& item : items) {
    if (item.kind == core::ItemKind::kElfSectionHeader) {
      ++shdr_items;
    }
    if (item.kind == core::ItemKind::kSectionData) {
      if (item.name == ".text") {
        saw_text = true;
        EXPECT_TRUE(item.rva_sensitive);  // holds absolute fixups
        EXPECT_EQ(item.content_size(), 0x100u);
      }
      if (item.name == ".rela.text") {
        saw_rela = true;
        EXPECT_FALSE(item.rva_sensitive);  // section-relative content
      }
      saw_data |= item.name == ".data";
    }
  }
  EXPECT_EQ(shdr_items, image.sections().size());
  EXPECT_TRUE(saw_text);
  EXPECT_TRUE(saw_rela);
  EXPECT_FALSE(saw_data);  // writable — excluded from checking
}

TEST(ElfParser, MalformedImagesThrowFormatError) {
  const Bytes ko = tiny_ko();
  EXPECT_THROW(ElfImage{ByteView(ko).first(32)}, FormatError);

  Bytes bad_magic = ko;
  bad_magic[0] = 'M';
  EXPECT_THROW(ElfImage{ByteView(bad_magic)}, FormatError);

  Bytes bad_shoff = ko;
  // e_shoff lives at offset 0x28; point it past the image.
  store_le64(MutableByteView(bad_shoff), 0x28, ko.size() + 64);
  EXPECT_THROW(ElfImage{ByteView(bad_shoff)}, FormatError);
}

// ---- loader -----------------------------------------------------------------

TEST(ElfLoader, PatchesAbsoluteSlotWithBiasedAddress) {
  const Bytes ko = tiny_ko();
  const std::uint32_t base = 0xF8400000u;
  const Bytes loaded = load_ko(ByteView(ko), base);
  ASSERT_EQ(loaded.size(), ko.size());

  const ElfImage image{ByteView(ko)};
  const Elf64Shdr* text = image.find_section(".text");
  ASSERT_NE(text, nullptr);
  // Symbol init_module = .text+0x10, addend 0x8, slot at .text+0x40.
  const std::uint64_t expected =
      kKernelBias | (base + text->sh_addr + 0x10 + 0x8);
  const std::uint64_t stored =
      load_le64(ByteView(loaded), static_cast<std::size_t>(text->sh_offset) + 0x40);
  EXPECT_EQ(stored, expected);

  // Nothing outside the slot moved.
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const std::size_t slot = static_cast<std::size_t>(text->sh_offset) + 0x40;
    if (i < slot || i >= slot + 8) {
      EXPECT_EQ(loaded[i], ko[i]) << i;
    }
  }
}

TEST(ElfLoader, TwoBasesNormalizeToIdenticalText) {
  const cloud::KoSpec spec = cloud::default_ko_catalog().front();
  const Bytes ko = cloud::build_ko_image(spec);
  const Bytes a = load_ko(ByteView(ko), 0xF8400000u);
  const Bytes b = load_ko(ByteView(ko), 0xFA7F3000u);
  EXPECT_NE(a, b);  // absolute fixups diverge with the base

  const ElfImage image{ByteView(ko)};
  const Elf64Shdr* text = image.find_section(".text");
  ASSERT_NE(text, nullptr);
  Bytes text_a = slice(ByteView(a), static_cast<std::size_t>(text->sh_offset),
                       static_cast<std::size_t>(text->sh_size));
  Bytes text_b = slice(ByteView(b), static_cast<std::size_t>(text->sh_offset),
                       static_cast<std::size_t>(text->sh_size));

  const core::FixupPolicy policy = core::elf64_format().fixup_policy();
  const auto result = core::adjust_fixups(
      MutableByteView(text_a), 0xF8400000u,
      MutableByteView(text_b), 0xFA7F3000u, policy);
  EXPECT_TRUE(result.sections_identical_after());
  EXPECT_EQ(result.adjusted, spec.abs64_fixups + spec.abs32s_fixups);
  EXPECT_EQ(text_a, text_b);  // Algorithm 2, ELF edition
}

TEST(ElfLoader, Pc32SlotsAreBaseInvariant) {
  // A call-style PC-relative reference: slot at .text+0x20 targeting
  // helper (.text+0x60) with the usual rel32 addend of -4.
  KoBuilder builder("pc32");
  Bytes text(0x80, 0x90);
  for (std::size_t i = 0x20; i < 0x24; ++i) {
    text[i] = 0;
  }
  builder.add_section(".text", std::move(text),
                      kShfAlloc | kShfExecinstr);
  builder.add_symbol("init_module", ".text", 0x10);
  builder.add_symbol("helper", ".text", 0x60);
  builder.add_rela(".text", 0x20, kRX8664_PC32, "helper", -4);
  const Bytes ko = builder.build();

  const Bytes a = load_ko(ByteView(ko), 0xF8400000u);
  const Bytes b = load_ko(ByteView(ko), 0xFA7F3000u);
  // S + A - P: the kernel bias and the load base cancel out of the
  // difference, so the two loads are byte-identical end to end — PC32
  // needs no normalization pass at all.
  EXPECT_EQ(a, b);

  const ElfImage image{ByteView(ko)};
  const Elf64Shdr* text_sh = image.find_section(".text");
  ASSERT_NE(text_sh, nullptr);
  // Layout-only displacement: (0x60 - 4) - 0x20 = 0x3C.
  const std::uint32_t stored = load_le32(
      ByteView(a), static_cast<std::size_t>(text_sh->sh_offset) + 0x20);
  EXPECT_EQ(stored, 0x3Cu);
}

TEST(ElfLoader, CatalogPc32SlotsNeedNoAdjustment) {
  // The default catalog now mixes PC-relative slots in with the absolute
  // ones; the normalization pass must adjust exactly the absolute slots
  // (the PC32 slots already agree across bases).
  const cloud::KoSpec spec = cloud::default_ko_catalog().front();
  ASSERT_GT(spec.pc32_fixups, 0u);
  const Bytes ko = cloud::build_ko_image(spec);
  const Bytes a = load_ko(ByteView(ko), 0xF8400000u);
  const Bytes b = load_ko(ByteView(ko), 0xFA7F3000u);

  const ElfImage image{ByteView(ko)};
  const Elf64Shdr* text = image.find_section(".text");
  ASSERT_NE(text, nullptr);
  Bytes text_a = slice(ByteView(a), static_cast<std::size_t>(text->sh_offset),
                       static_cast<std::size_t>(text->sh_size));
  Bytes text_b = slice(ByteView(b), static_cast<std::size_t>(text->sh_offset),
                       static_cast<std::size_t>(text->sh_size));
  const core::FixupPolicy policy = core::elf64_format().fixup_policy();
  const auto result = core::adjust_fixups(
      MutableByteView(text_a), 0xF8400000u,
      MutableByteView(text_b), 0xFA7F3000u, policy);
  EXPECT_TRUE(result.sections_identical_after());
  EXPECT_EQ(result.adjusted, spec.abs64_fixups + spec.abs32s_fixups);
  EXPECT_EQ(text_a, text_b);
}

TEST(ElfLoader, Abs32SlotRejectsUnrepresentableAddress) {
  KoBuilder builder("bad32s");
  Bytes text(0x40, 0x90);
  builder.add_section(".text", std::move(text), kShfAlloc | kShfExecinstr);
  builder.add_symbol("init_module", ".text", 0);
  builder.add_rela(".text", 0x10, kRX8664_32S, "init_module", 0);
  const Bytes ko = builder.build();
  // 32S stores the sign-extended low 32 bits; a kernel-biased address is
  // representable, so this must load fine at a normal module base.
  EXPECT_NO_THROW(load_ko(ByteView(ko), 0xF8400000u));
}

// ---- loader rejections --------------------------------------------------------
//
// Each case corrupts one field of a well-formed one-relocation .ko and
// checks that apply_ko_relocations throws the FormatError for that field.

constexpr std::uint32_t kLoadBase = 0xF8400000u;

// Field offsets inside the ELF64 records (System V gABI).
constexpr std::size_t kShLink = 40;    // Elf64_Shdr.sh_link
constexpr std::size_t kShInfo = 44;    // Elf64_Shdr.sh_info
constexpr std::size_t kROffset = 0;    // Elf64_Rela.r_offset
constexpr std::size_t kRInfo = 8;      // Elf64_Rela.r_info
constexpr std::size_t kRAddend = 16;   // Elf64_Rela.r_addend
constexpr std::size_t kStShndx = 6;    // Elf64_Sym.st_shndx

/// A .ko whose .text carries one relocation of `type` at +0x40 against
/// `helper` (.text+0x60), and where the fields a case corrupts live.
struct OneRelaKo {
  Bytes bytes;
  std::size_t rela_shdr = 0;  // .rela.text's section header
  std::size_t record = 0;     // its one Elf64_Rela
  std::size_t symbol = 0;     // the Elf64_Sym that record references
  std::uint16_t shnum = 0;
  std::uint64_t text_size = 0;
};

OneRelaKo one_rela_ko(std::uint32_t type) {
  KoBuilder builder("reject");
  builder.add_section(".text", Bytes(0x100, 0x90), kShfAlloc | kShfExecinstr);
  builder.add_symbol("helper", ".text", 0x60);
  builder.add_rela(".text", 0x40, type, "helper",
                   type == kRX8664_PC32 ? -4 : 0);
  OneRelaKo ko;
  ko.bytes = builder.build();
  const ElfImage image{ByteView(ko.bytes)};
  const int rela_index = image.find_section_index(".rela.text");
  const int symtab_index = image.find_section_index(".symtab");
  EXPECT_GE(rela_index, 0);
  EXPECT_GE(symtab_index, 0);
  const auto rela = static_cast<std::size_t>(rela_index);
  const auto symtab = static_cast<std::size_t>(symtab_index);
  const auto& sections = image.sections();
  ko.rela_shdr =
      static_cast<std::size_t>(image.header().e_shoff) + rela * kShdrSize;
  ko.record = static_cast<std::size_t>(sections[rela].sh_offset);
  ko.symbol = static_cast<std::size_t>(sections[symtab].sh_offset) +
              kSymSize;  // symbol 1; 0 is the null symbol
  ko.shnum = static_cast<std::uint16_t>(sections.size());
  ko.text_size = image.find_section(".text")->sh_size;
  // The uncorrupted module loads.
  Bytes pristine = ko.bytes;
  EXPECT_NO_THROW(apply_ko_relocations(MutableByteView(pristine), kLoadBase));
  return ko;
}

/// Expects loading `bytes` to throw a FormatError whose message contains
/// `reason`.
void expect_rejected(Bytes bytes, const std::string& reason) {
  try {
    apply_ko_relocations(MutableByteView(bytes), kLoadBase);
    ADD_FAILURE() << "loaded; expected FormatError: " << reason;
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

TEST(ElfLoaderRejects, RelaSectionWithBadShLinkOrShInfo) {
  const OneRelaKo ko = one_rela_ko(kRX8664_64);
  for (const std::size_t field : {kShLink, kShInfo}) {
    Bytes bad = ko.bytes;
    store_le32(MutableByteView(bad), ko.rela_shdr + field, ko.shnum);
    expect_rejected(bad, "Rela section with bad sh_link/sh_info");
  }
}

TEST(ElfLoaderRejects, SymbolIndexOutOfRange) {
  const OneRelaKo ko = one_rela_ko(kRX8664_64);
  Bytes bad = ko.bytes;
  store_le64(MutableByteView(bad), ko.record + kRInfo,
             Elf64Rela::make_info(99, kRX8664_64));
  expect_rejected(bad, "relocation references symbol out of range");
}

TEST(ElfLoaderRejects, SymbolInOutOfRangeSection) {
  const OneRelaKo ko = one_rela_ko(kRX8664_64);
  Bytes bad = ko.bytes;
  store_le16(MutableByteView(bad), ko.symbol + kStShndx, ko.shnum);
  expect_rejected(bad, "symbol defined in out-of-range section");
}

TEST(ElfLoaderRejects, SlotOutsideTargetSectionAtEveryWidth) {
  for (const auto& [type, width] :
       {std::pair{kRX8664_64, 8u}, std::pair{kRX8664_PC32, 4u},
        std::pair{kRX8664_32S, 4u}}) {
    const OneRelaKo ko = one_rela_ko(type);
    // The slot's last byte one past the section end.
    Bytes bad = ko.bytes;
    store_le64(MutableByteView(bad), ko.record + kROffset,
               ko.text_size - width + 1);
    expect_rejected(bad, "relocation slot outside target section");
    // Flush with the end still loads.
    Bytes edge = ko.bytes;
    store_le64(MutableByteView(edge), ko.record + kROffset,
               ko.text_size - width);
    EXPECT_NO_THROW(apply_ko_relocations(MutableByteView(edge), kLoadBase))
        << "type " << type;
  }
}

TEST(ElfLoaderRejects, Pc32DisplacementOutOfRange) {
  const OneRelaKo ko = one_rela_ko(kRX8664_PC32);
  Bytes bad = ko.bytes;
  store_le64(MutableByteView(bad), ko.record + kRAddend, 1ull << 32);
  expect_rejected(bad, "R_X86_64_PC32 displacement out of range");
}

TEST(ElfLoaderRejects, Abs32sValueOutOfRange) {
  const OneRelaKo ko = one_rela_ko(kRX8664_32S);
  // S + 2^32 wraps the kernel-biased address out of the sign-extended
  // 32-bit range.
  Bytes bad = ko.bytes;
  store_le64(MutableByteView(bad), ko.record + kRAddend, 1ull << 32);
  expect_rejected(bad, "R_X86_64_32S value out of range");
}

TEST(ElfLoaderRejects, UnsupportedRelocationType) {
  const OneRelaKo ko = one_rela_ko(kRX8664_64);
  Bytes bad = ko.bytes;
  store_le64(MutableByteView(bad), ko.record + kRInfo,
             Elf64Rela::make_info(1, 42));
  expect_rejected(bad, "unsupported relocation type");
}

// ---- plugin surface ---------------------------------------------------------

TEST(ElfPlugin, DetectRequiresMagicClassAndEncoding) {
  const Bytes ko = tiny_ko();
  EXPECT_TRUE(core::elf64_format().detect(ByteView(ko).first(16)));

  Bytes wrong_class = ko;
  wrong_class[kEiClass] = 1;  // ELFCLASS32
  EXPECT_FALSE(core::elf64_format().detect(ByteView(wrong_class).first(16)));

  Bytes wrong_endian = ko;
  wrong_endian[kEiData] = 2;  // big-endian
  EXPECT_FALSE(core::elf64_format().detect(ByteView(wrong_endian).first(16)));

  const Bytes mz = {'M', 'Z', 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(core::elf64_format().detect(ByteView(mz)));
}

TEST(ElfPlugin, ExtractItemsMatchesDirectParserWalk) {
  const Bytes ko = tiny_ko();
  core::ModuleImage module;
  module.name = "tiny.ko";
  module.view = ByteView(ko);
  const auto plugin_items = core::elf64_format().extract_items(module);
  const auto direct_items =
      ElfImage{ByteView(ko)}.extract_items(vmi::GuestView(ko));
  ASSERT_EQ(plugin_items.size(), direct_items.size());
  for (std::size_t i = 0; i < plugin_items.size(); ++i) {
    EXPECT_EQ(plugin_items[i].name, direct_items[i].name) << i;
    EXPECT_EQ(plugin_items[i].content_copy(), direct_items[i].content_copy())
        << i;
  }
}

}  // namespace
