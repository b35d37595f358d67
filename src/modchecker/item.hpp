// Format-neutral integrity-item vocabulary — the substrate of the paper's
// Algorithm 1 ("decompose the module into its headers and section
// contents, hash each separately").
//
// These types used to live in pe/parser.hpp; the format-plugin refactor
// hoisted them here so the checking layers (parser, checker, canonical
// pool, pipeline) speak one item language regardless of whether a module
// arrived as a PE32 driver or an ELF64 .ko.  `pe/parser.hpp` re-exports
// them under `mc::pe` for source compatibility; the enumerator order and
// the to_string spellings of the original PE kinds are frozen (report
// pair keys embed the numeric kind, report text embeds the strings).
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.hpp"
#include "vmi/guest_view.hpp"

namespace mc::core {

/// What kind of module piece an integrity item covers.  PE kinds first
/// (frozen order — pair keys embed the numeric value), ELF kinds appended.
enum class ItemKind {
  kDosHeader,        // IMAGE_DOS_HEADER + DOS stub (bytes [0, e_lfanew))
  kNtHeader,         // PE signature + IMAGE_FILE_HEADER
  kOptionalHeader,   // IMAGE_OPTIONAL_HEADER (incl. data directories)
  kSectionHeader,    // one IMAGE_SECTION_HEADER
  kSectionData,      // data of one read-only or executable section
  kElfHeader,        // ELF64 file header (Elf64_Ehdr)
  kElfSectionHeader, // one Elf64_Shdr
};

inline std::string to_string(ItemKind kind) {
  switch (kind) {
    case ItemKind::kDosHeader:
      return "IMAGE_DOS_HEADER";
    case ItemKind::kNtHeader:
      return "IMAGE_NT_HEADER";
    case ItemKind::kOptionalHeader:
      return "IMAGE_OPTIONAL_HEADER";
    case ItemKind::kSectionHeader:
      return "IMAGE_SECTION_HEADER";
    case ItemKind::kSectionData:
      return "SECTION_DATA";
    case ItemKind::kElfHeader:
      return "ELF64_EHDR";
    case ItemKind::kElfSectionHeader:
      return "ELF64_SHDR";
  }
  return "?";
}

/// One hashable unit of a module (paper §III-B.3: "computes the hashes of
/// the headers and the contents of the module ... separately").
///
/// Content is always a borrowed `view`: spans over guest frames (the
/// zero-copy Acquire path) or one span over an owned buffer its holder
/// keeps (the scan cache's copy, a golden file).  Headers are subviews
/// like section data.  An item is valid while the memory its view names
/// is; content_copy() is the escape hatch for consumers that outlive it.
struct IntegrityItem {
  ItemKind kind = ItemKind::kSectionData;
  std::string name;        // ".text", "IMAGE_NT_HEADER", ...
  std::uint32_t rva = 0;   // where the bytes start within the image
  bool rva_sensitive = false;  // true for executable section data (holds
                               // absolute addresses that must be normalized
                               // before hashing)
  vmi::GuestView view;     // the content

  std::size_t content_size() const { return view.size(); }
  /// Copies the content into `dst` (dst.size() == content_size()).
  void copy_content(MutableByteView dst) const { view.read_into(0, dst); }
  /// Owned copy — materialization point for forensics/dump consumers.
  Bytes content_copy() const { return view.materialize(); }
  /// Walks the content as borrowed spans in order (streaming hash).
  template <typename Fn>
  void for_each_span(Fn&& fn) const {
    view.for_each_segment(fn);
  }
};

}  // namespace mc::core
