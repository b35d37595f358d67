// Parser for in-memory (mapped) PE images — the substrate of the paper's
// Module-Parser component and Algorithm 1.
//
// Given a view of a module extracted from guest memory, the parser verifies
// the DOS/NT magics, walks the header chain (Fig. 3 of the paper:
// IMAGE_DOS_HEADER → e_lfanew → IMAGE_NT_HEADER → FILE/OPTIONAL headers →
// section headers → section data) and produces the list of *integrity
// items*: each header and each read-only/executable section's data, exactly
// the units the Integrity-Checker hashes separately.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "modchecker/item.hpp"
#include "pe/structs.hpp"
#include "util/bytes.hpp"
#include "vmi/guest_view.hpp"

namespace mc::pe {

// The item vocabulary is format-neutral since the plugin refactor; the
// canonical definitions live in modchecker/item.hpp.  Re-exported here so
// existing `pe::IntegrityItem` spellings keep compiling unchanged.
using ItemKind = core::ItemKind;
using IntegrityItem = core::IntegrityItem;
using core::to_string;

/// Fully parsed view of a mapped module.
class ParsedImage {
 public:
  /// Parses `mapped` (memory layout; a ByteView converts to a one-segment
  /// view).  Headers are staged through small fixed-size stack copies, so
  /// nothing image-sized is materialized.  Throws FormatError on bad
  /// magics or out-of-bounds structures.
  explicit ParsedImage(const vmi::GuestView& mapped);

  const DosHeader& dos() const { return dos_; }
  const FileHeader& file_header() const { return file_; }
  const OptionalHeader32& optional_header() const { return optional_; }
  const std::vector<SectionHeader>& sections() const { return sections_; }

  std::uint32_t e_lfanew() const { return dos_.e_lfanew; }
  std::uint32_t size_of_image() const { return optional_.SizeOfImage; }

  /// Finds a section by name; returns nullptr if absent.
  const SectionHeader* find_section(const std::string& name) const;

  /// Algorithm 1: extracts every header and the data of each section that
  /// is executable or read-only initialized data, as separate items.
  /// Writable data sections are excluded (they legitimately change at
  /// runtime and across VMs).  Every item is a subview of `mapped`, so
  /// the items are valid while the memory `mapped` names is.
  std::vector<IntegrityItem> extract_items(const vmi::GuestView& mapped) const;

 private:
  DosHeader dos_;
  FileHeader file_;
  OptionalHeader32 optional_;
  std::vector<SectionHeader> sections_;
  std::uint32_t section_table_offset_ = 0;
};

/// True if a section's data participates in integrity checking: code or
/// non-writable initialized data, and not discardable.
bool is_integrity_checked_section(const SectionHeader& sh);

}  // namespace mc::pe
