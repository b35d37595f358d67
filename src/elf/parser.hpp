// Parser for in-memory (mapped) ELF64 kernel-module images — the ELF side
// of the paper's Module-Parser component and Algorithm 1.
//
// Given a view of a .ko extracted from guest memory, the parser verifies
// the ELF magic/class/encoding, walks Elf64_Ehdr → section header table →
// section names, and produces the list of *integrity items*: the file
// header, every section header, and the data of each allocated read-only
// section (code, rodata, the relocation/symbol tables the module keeps
// resident) — exactly the units the Integrity-Checker hashes separately.
//
// The synthetic .ko images this project builds are already laid out as
// mapped images: sh_offset is the position inside the image and sh_addr
// equals it, so a guest extraction at the module base parses with the
// same walk as the golden file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "elf/structs.hpp"
#include "modchecker/item.hpp"
#include "util/bytes.hpp"
#include "vmi/guest_view.hpp"

namespace mc::elf {

/// Fully parsed view of a mapped ELF64 module.
class ElfImage {
 public:
  /// Parses `mapped` (memory layout; a ByteView converts to a one-segment
  /// view).  The file header and section headers are staged through small
  /// fixed-size stack buffers and the section-name table through one
  /// small owned copy, so nothing image-sized is materialized.  Throws
  /// FormatError on bad magics or out-of-bounds structures.
  explicit ElfImage(const vmi::GuestView& mapped);

  const Elf64Ehdr& header() const { return ehdr_; }
  const std::vector<Elf64Shdr>& sections() const { return sections_; }

  /// Finds a section by name; returns nullptr if absent.
  const Elf64Shdr* find_section(const std::string& name) const;
  /// Index variant (needed to follow sh_link/sh_info); -1 if absent.
  int find_section_index(const std::string& name) const;

  /// Algorithm 1: extracts the ELF header, every section header and the
  /// data of each allocated, non-writable section as separate items.
  /// Executable sections carry loader-patched absolute addresses, so
  /// their data is rva_sensitive.  Every item is a subview of `mapped`.
  std::vector<core::IntegrityItem> extract_items(
      const vmi::GuestView& mapped) const;

 private:
  void validate_and_name(std::size_t image_size, ByteView shstrtab);

  Elf64Ehdr ehdr_;
  std::vector<Elf64Shdr> sections_;
  std::vector<std::string> names_;
};

/// True if a section's data participates in integrity checking: resident
/// (allocated, with bytes in the image) and not writable.  Writable data
/// legitimately changes at runtime; NOBITS (.bss) has no image bytes.
bool is_integrity_checked_section(const Elf64Shdr& sh);

}  // namespace mc::elf
