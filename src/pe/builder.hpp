// PE32 image builder.
//
// Produces byte-faithful 32-bit driver images (the kind the paper's testbed
// loads: hal.dll, http.sys, dummy "Hello World" .sys files): DOS header +
// classic stub, NT headers, section table, code/data/import/export/reloc
// sections, real base-relocation records, and a valid PE checksum.
//
// Sections are laid out at deterministic RVAs (first section at 0x1000,
// subsequent sections at the next section-aligned boundary), so callers can
// query `next_section_rva()` before generating position-dependent content
// such as machine code with embedded absolute addresses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pe/exports.hpp"
#include "pe/imports.hpp"
#include "pe/resources.hpp"
#include "pe/structs.hpp"
#include "util/bytes.hpp"

namespace mc::pe {

class PeBuilder {
 public:
  /// `module_name` is informational (export table name, diagnostics).
  explicit PeBuilder(std::string module_name);

  PeBuilder& set_image_base(std::uint32_t base);
  /// Entry point as an absolute RVA (usually text_rva + offset).
  PeBuilder& set_entry_point(std::uint32_t rva);
  PeBuilder& set_dll(bool is_dll);

  std::uint32_t image_base() const { return image_base_; }

  /// RVA at which the next added section will be placed.
  std::uint32_t next_section_rva() const;

  /// Adds a raw section.  `fixup_offsets` are offsets *within data* holding
  /// 32-bit absolute addresses that need base relocations.
  /// `virtual_size` defaults to data.size().
  PeBuilder& add_section(const std::string& name, Bytes data,
                         std::uint32_t characteristics,
                         std::vector<std::uint32_t> fixup_offsets = {},
                         std::optional<std::uint32_t> virtual_size = {});

  /// Adds a ".idata" import section and points data directory 1 at it.
  PeBuilder& add_import_section(const std::vector<ImportDll>& dlls);

  /// Adds an ".edata" export section and points data directory 0 at it.
  PeBuilder& add_export_section(std::vector<ExportedSymbol> symbols);

  /// Adds a ".rsrc" section with a VS_VERSIONINFO resource and points data
  /// directory 2 at it.
  PeBuilder& add_resource_section(const VersionInfo& version);

  /// Adds the ".reloc" section from all accumulated fixups and points data
  /// directory 5 at it.  Call last.
  PeBuilder& add_reloc_section();

  /// Serializes the image file.  The builder can be reused afterwards.
  Bytes build() const;

 private:
  struct PendingSection {
    SectionHeader header;
    Bytes data;
  };

  std::string module_name_;
  std::uint32_t image_base_ = 0x00010000;
  std::uint32_t timestamp_ = 0x4C000000;  // fixed, deterministic
  std::uint32_t entry_point_rva_ = 0;
  bool is_dll_ = false;

  std::vector<PendingSection> sections_;
  std::vector<std::uint32_t> fixup_rvas_;
  std::array<DataDirectory, kNumDataDirectories> directories_{};

  Bytes dos_stub_ = make_dos_stub();
};

/// Computes the standard PE checksum over a serialized image file, treating
/// the in-file CheckSum dword (at `checksum_offset`) as zero.
std::uint32_t compute_pe_checksum(ByteView file, std::size_t checksum_offset);

}  // namespace mc::pe
