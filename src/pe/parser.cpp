#include "pe/parser.hpp"

#include <algorithm>
#include <array>

#include "pe/constants.hpp"
#include "util/error.hpp"

namespace mc::pe {

ParsedImage::ParsedImage(const vmi::GuestView& mapped) {
  // Stages each header through a fixed-size stack buffer: DOS header, NT
  // prefix, optional header, section table.  Each staged read raises the
  // struct parsers' own FormatError messages on out-of-range structures,
  // so nothing image-sized is materialized and a scattered view fails
  // exactly like a contiguous one.
  std::array<std::uint8_t, kDosHeaderSize> dos_buf{};
  if (mapped.size() < dos_buf.size()) {
    throw FormatError("image too small for IMAGE_DOS_HEADER");
  }
  mapped.read_into(0, MutableByteView(dos_buf));
  dos_ = DosHeader::parse(ByteView(dos_buf));
  if (dos_.e_magic != kDosMagic) {
    throw FormatError("module lacks MZ magic");
  }
  if (dos_.e_lfanew < kDosHeaderSize ||
      dos_.e_lfanew + kNtHeadersPrefixSize > mapped.size()) {
    throw FormatError("e_lfanew out of range");
  }
  std::array<std::uint8_t, kNtHeadersPrefixSize> nt_buf{};
  mapped.read_into(dos_.e_lfanew, MutableByteView(nt_buf));
  if (load_le32(ByteView(nt_buf), 0) != kNtSignature) {
    throw FormatError("module lacks PE signature");
  }
  file_ = FileHeader::parse(ByteView(nt_buf), 4);
  const std::size_t opt_off = dos_.e_lfanew + kNtHeadersPrefixSize;
  if (file_.SizeOfOptionalHeader < kOptionalHeader32Size) {
    throw FormatError("optional header too small for PE32");
  }
  std::array<std::uint8_t, kOptionalHeader32Size> opt_buf{};
  if (opt_off + opt_buf.size() > mapped.size()) {
    throw FormatError("image too small for IMAGE_OPTIONAL_HEADER32");
  }
  mapped.read_into(opt_off, MutableByteView(opt_buf));
  optional_ = OptionalHeader32::parse(ByteView(opt_buf), 0);

  section_table_offset_ =
      static_cast<std::uint32_t>(opt_off + file_.SizeOfOptionalHeader);
  sections_.reserve(file_.NumberOfSections);
  std::array<std::uint8_t, kSectionHeaderSize> sh_buf{};
  for (std::uint16_t i = 0; i < file_.NumberOfSections; ++i) {
    const std::size_t off = section_table_offset_ +
                            std::size_t{i} * kSectionHeaderSize;
    if (off + sh_buf.size() > mapped.size()) {
      throw FormatError("image too small for IMAGE_SECTION_HEADER");
    }
    mapped.read_into(off, MutableByteView(sh_buf));
    sections_.push_back(SectionHeader::parse(ByteView(sh_buf), 0));
  }
}

const SectionHeader* ParsedImage::find_section(const std::string& name) const {
  const auto it =
      std::find_if(sections_.begin(), sections_.end(),
                   [&](const SectionHeader& s) { return s.name() == name; });
  return it == sections_.end() ? nullptr : &*it;
}

bool is_integrity_checked_section(const SectionHeader& sh) {
  if (sh.is_discardable()) {
    return false;  // e.g. .reloc / INIT: freed after load, contents undefined
  }
  if (sh.is_code()) {
    return true;
  }
  const bool initialized = (sh.Characteristics & kScnCntInitializedData) != 0;
  return initialized && !sh.is_writable();
}

std::vector<IntegrityItem> ParsedImage::extract_items(
    const vmi::GuestView& mapped) const {
  // Every item, headers included, is a subview of `mapped`.
  std::vector<IntegrityItem> items;

  // 1. DOS header + stub: [0, e_lfanew).  The paper's experiment E3 shows a
  //    stub-text edit ("DOS" -> "CHK") being caught via this item.
  items.push_back({ItemKind::kDosHeader, "IMAGE_DOS_HEADER", 0, false,
                   mapped.subview(0, dos_.e_lfanew)});

  // 2. PE signature + IMAGE_FILE_HEADER.
  items.push_back({ItemKind::kNtHeader, "IMAGE_NT_HEADER", dos_.e_lfanew,
                   false, mapped.subview(dos_.e_lfanew, kNtHeadersPrefixSize)});

  // 3. IMAGE_OPTIONAL_HEADER (the full SizeOfOptionalHeader bytes).
  const std::uint32_t opt_off = dos_.e_lfanew +
                                static_cast<std::uint32_t>(kNtHeadersPrefixSize);
  items.push_back({ItemKind::kOptionalHeader, "IMAGE_OPTIONAL_HEADER", opt_off,
                   false, mapped.subview(opt_off, file_.SizeOfOptionalHeader)});

  // 4. Every section header, as its own item (paper E4: "all
  //    SECTION_HEADER's" flagged independently).
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const std::uint32_t off =
        section_table_offset_ + static_cast<std::uint32_t>(i) *
                                    static_cast<std::uint32_t>(kSectionHeaderSize);
    items.push_back({ItemKind::kSectionHeader,
                     "SECTION_HEADER[" + sections_[i].name() + "]", off, false,
                     mapped.subview(off, kSectionHeaderSize)});
  }

  // 5. Data of each integrity-checked section.  Executable sections carry
  //    loader-rewritten absolute addresses, so they are rva_sensitive.
  for (const auto& sh : sections_) {
    if (!is_integrity_checked_section(sh)) {
      continue;
    }
    const std::uint32_t len =
        std::min(sh.VirtualSize,
                 static_cast<std::uint32_t>(mapped.size()) - sh.VirtualAddress);
    if (sh.VirtualAddress >= mapped.size()) {
      throw FormatError("section data outside mapped image");
    }
    items.push_back({ItemKind::kSectionData, sh.name(), sh.VirtualAddress,
                     sh.is_code(), mapped.subview(sh.VirtualAddress, len)});
  }
  return items;
}

}  // namespace mc::pe
