#include "elf/parser.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"

namespace mc::elf {

bool is_integrity_checked_section(const Elf64Shdr& sh) {
  if (sh.sh_type == kShtNull || sh.sh_type == kShtNobits) {
    return false;  // no bytes in the image (.bss) or placeholder
  }
  return sh.is_alloc() && !sh.is_writable();
}

void ElfImage::validate_and_name(std::size_t image_size, ByteView shstrtab) {
  if (!ehdr_.magic_ok()) {
    throw FormatError("module lacks ELF magic");
  }
  if (ehdr_.e_ident[kEiClass] != kElfClass64 ||
      ehdr_.e_ident[kEiData] != kElfData2Lsb) {
    throw FormatError("module is not little-endian ELF64");
  }
  if (ehdr_.e_shentsize != kShdrSize) {
    throw FormatError("unexpected e_shentsize");
  }
  names_.reserve(sections_.size());
  for (const Elf64Shdr& sh : sections_) {
    if (sh.sh_type != kShtNull && sh.sh_type != kShtNobits) {
      if (sh.sh_offset > image_size || sh.sh_size > image_size - sh.sh_offset) {
        throw FormatError("section data outside mapped image");
      }
    }
    // Resolve the name out of .shstrtab (NUL-terminated at sh_name).
    std::string name;
    if (sh.sh_name != 0) {
      if (sh.sh_name >= shstrtab.size()) {
        throw FormatError("sh_name outside .shstrtab");
      }
      const auto begin = shstrtab.begin() + sh.sh_name;
      const auto nul = std::find(begin, shstrtab.end(), std::uint8_t{0});
      if (nul == shstrtab.end()) {
        throw FormatError("unterminated section name");
      }
      name.assign(begin, nul);
    }
    names_.push_back(std::move(name));
  }
}

ElfImage::ElfImage(const vmi::GuestView& mapped) {
  // Stages the file header and each section header through fixed-size
  // stack buffers and the (small) section-name table through one owned
  // copy, so nothing image-sized is materialized and a scattered view
  // fails exactly like a contiguous one.
  std::array<std::uint8_t, kEhdrSize> ehdr_buf{};
  if (mapped.size() < ehdr_buf.size()) {
    throw FormatError("image too small for Elf64_Ehdr");
  }
  mapped.read_into(0, MutableByteView(ehdr_buf));
  ehdr_ = Elf64Ehdr::parse(ByteView(ehdr_buf));
  if (!ehdr_.magic_ok()) {
    throw FormatError("module lacks ELF magic");
  }
  if (ehdr_.e_shoff > mapped.size() ||
      std::size_t{ehdr_.e_shnum} * kShdrSize >
          mapped.size() - ehdr_.e_shoff) {
    throw FormatError("section header table out of range");
  }
  sections_.reserve(ehdr_.e_shnum);
  std::array<std::uint8_t, kShdrSize> sh_buf{};
  for (std::uint16_t i = 0; i < ehdr_.e_shnum; ++i) {
    mapped.read_into(static_cast<std::size_t>(ehdr_.e_shoff) + i * kShdrSize,
                     MutableByteView(sh_buf));
    sections_.push_back(Elf64Shdr::parse(ByteView(sh_buf), 0));
  }
  if (ehdr_.e_shstrndx >= sections_.size()) {
    throw FormatError("e_shstrndx out of range");
  }
  const Elf64Shdr& strs = sections_[ehdr_.e_shstrndx];
  if (strs.sh_offset > mapped.size() ||
      strs.sh_size > mapped.size() - strs.sh_offset) {
    throw FormatError(".shstrtab outside mapped image");
  }
  const Bytes shstrtab =
      mapped
          .subview(static_cast<std::size_t>(strs.sh_offset),
                   static_cast<std::size_t>(strs.sh_size))
          .materialize();
  validate_and_name(mapped.size(), ByteView(shstrtab));
}

const Elf64Shdr* ElfImage::find_section(const std::string& name) const {
  const int idx = find_section_index(name);
  return idx < 0 ? nullptr : &sections_[static_cast<std::size_t>(idx)];
}

int ElfImage::find_section_index(const std::string& name) const {
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<core::IntegrityItem> ElfImage::extract_items(
    const vmi::GuestView& mapped) const {
  // Every item, headers included, is a subview of `mapped`.
  std::vector<core::IntegrityItem> items;

  // 1. The ELF file header (magic, machine, table geometry).
  items.push_back({core::ItemKind::kElfHeader, "ELF64_EHDR", 0, false,
                   mapped.subview(0, kEhdrSize)});

  // 2. Every section header, as its own item (the ELF analogue of the
  //    paper's per-SECTION_HEADER items — E4-style table tampering is
  //    localized to the one header it touched).
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const std::size_t off =
        static_cast<std::size_t>(ehdr_.e_shoff) + i * kShdrSize;
    const std::string& label =
        names_[i].empty() ? std::to_string(i) : names_[i];
    items.push_back({core::ItemKind::kElfSectionHeader,
                     "ELF64_SHDR[" + label + "]",
                     static_cast<std::uint32_t>(off), false,
                     mapped.subview(off, kShdrSize)});
  }

  // 3. Data of each resident read-only section.  Executable sections carry
  //    loader-patched absolute addresses, so they are rva_sensitive.
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Elf64Shdr& sh = sections_[i];
    if (!is_integrity_checked_section(sh)) {
      continue;
    }
    items.push_back({core::ItemKind::kSectionData, names_[i],
                     static_cast<std::uint32_t>(sh.sh_addr), sh.is_code(),
                     mapped.subview(static_cast<std::size_t>(sh.sh_offset),
                                    static_cast<std::size_t>(sh.sh_size))});
  }
  return items;
}

}  // namespace mc::elf
