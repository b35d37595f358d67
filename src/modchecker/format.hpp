// Module-format plugin interface — the seam between the format-agnostic
// checking pipeline and the concrete image parsers.
//
// ModChecker's Algorithms 1 and 2 are format-agnostic in principle
// ("decompose into items, normalize relocated absolute addresses
// pairwise, compare"); only the header walk and the loader's fixup shape
// are format-specific.  Each supported format packages exactly those two
// pieces as a ModuleFormat plugin:
//
//   * detect      — magic sniff over the first bytes of a mapped image
//                   (PE32: "MZ"; ELF64: "\x7fELF" + class/encoding).
//   * extract_items — parse the image into the plugin's own ParsedImage
//                   representation and decompose it into format-neutral
//                   IntegrityItems (Algorithm 1) that are subviews of
//                   the image's view.
//   * fixup_policy — the width/step/bias recipe adjust_fixups needs to
//                   undo the loader's absolute-address relocation
//                   (Algorithm 2; see FixupPolicy in rva_adjust.hpp).
//
// The plugin singletons are *defined* in their format's own library
// (src/pe/format_plugin.cpp, src/elf/format_plugin.cpp) and only declared
// here, so nothing under modchecker/ includes pe/ or elf/ headers — the
// mc_analyze `format-bypass` rule enforces that parser construction stays
// inside those TUs.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "modchecker/item.hpp"
#include "modchecker/rva_adjust.hpp"
#include "modchecker/types.hpp"
#include "util/bytes.hpp"

namespace mc::core {

/// Pipeline-level format selection: kAuto sniffs the image header; the
/// explicit values pin one plugin (CLI `--format=`, tests).
enum class ModuleFormatId {
  kAuto,
  kPe32,
  kElf64,
};

std::string to_string(ModuleFormatId id);

/// Parses "auto" | "pe32" | "elf64" (the CLI spelling).  Throws
/// InvalidArgument on anything else.
ModuleFormatId parse_module_format(std::string_view name);

/// One image format the checker understands.  Implementations are
/// stateless singletons; see pe32_format() / elf64_format().
class ModuleFormat {
 public:
  virtual ~ModuleFormat() = default;

  virtual ModuleFormatId id() const = 0;
  /// Stable lowercase name ("pe32", "elf64") — CLI/report spelling.
  virtual std::string_view name() const = 0;

  /// True if `header` (the first bytes of a mapped image, possibly fewer
  /// than kFormatSniffBytes for tiny images) carries this format's magic.
  virtual bool detect(ByteView header) const = 0;

  /// Algorithm 1: parses the image's view and decomposes it into
  /// integrity items that borrow it.  Throws FormatError on malformed
  /// images.
  virtual std::vector<IntegrityItem> extract_items(
      const ModuleImage& image) const = 0;

  /// Algorithm 2 recipe for this format's loader-applied fixups.
  virtual FixupPolicy fixup_policy() const = 0;
};

/// The plugin singletons (defined in src/pe/format_plugin.cpp and
/// src/elf/format_plugin.cpp respectively).
const ModuleFormat& pe32_format();
const ModuleFormat& elf64_format();

/// Upper bound on the header bytes detect() may examine.
inline constexpr std::size_t kFormatSniffBytes = 16;

/// Copies up to kFormatSniffBytes of the image's header into `dst`;
/// returns the number of bytes staged.
std::size_t read_image_header(const ModuleImage& image, MutableByteView dst);

/// Registry of every linked-in format plugin, in deterministic order
/// (pe32 first, matching the project's history).  The pipeline resolves
/// each module through this instead of naming a parser.
class FormatRegistry {
 public:
  /// The process-wide registry over the built-in plugins.
  static const FormatRegistry& process_default();

  const std::vector<const ModuleFormat*>& formats() const { return formats_; }

  /// First plugin whose magic matches; nullptr when none does.
  const ModuleFormat* detect(ByteView header) const;

  /// Plugin with the given id; nullptr for kAuto or an unknown id.
  const ModuleFormat* find(ModuleFormatId id) const;

  /// Resolves the plugin for `image`: an explicit `wanted` pins that
  /// plugin; kAuto sniffs the header.  Throws FormatError when the magic
  /// is unrecognized (the pipeline's tolerant parse turns that into a
  /// parse_failed finding, never a crash).
  const ModuleFormat& resolve(const ModuleImage& image,
                              ModuleFormatId wanted) const;

 private:
  FormatRegistry();

  std::vector<const ModuleFormat*> formats_;
};

}  // namespace mc::core
