#include "pe/builder.hpp"

#include <numeric>

#include "pe/reloc.hpp"

#include "util/error.hpp"

namespace mc::pe {

PeBuilder::PeBuilder(std::string module_name)
    : module_name_(std::move(module_name)) {}

PeBuilder& PeBuilder::set_image_base(std::uint32_t base) {
  MC_CHECK(base % kDefaultSectionAlignment == 0,
           "image base must be section-aligned");
  image_base_ = base;
  return *this;
}

PeBuilder& PeBuilder::set_entry_point(std::uint32_t rva) {
  entry_point_rva_ = rva;
  return *this;
}

PeBuilder& PeBuilder::set_dll(bool is_dll) {
  is_dll_ = is_dll;
  return *this;
}

std::uint32_t PeBuilder::next_section_rva() const {
  std::uint32_t rva = kDefaultSectionAlignment;  // headers fit below 0x1000
  for (const auto& s : sections_) {
    rva = std::max(rva, align_up(s.header.VirtualAddress +
                                     std::max(s.header.VirtualSize, 1u),
                                 kDefaultSectionAlignment));
  }
  return rva;
}

PeBuilder& PeBuilder::add_section(const std::string& name, Bytes data,
                                  std::uint32_t characteristics,
                                  std::vector<std::uint32_t> fixup_offsets,
                                  std::optional<std::uint32_t> virtual_size) {
  MC_CHECK(sections_.size() < 16, "too many sections");
  PendingSection s;
  s.header.set_name(name);
  s.header.VirtualAddress = next_section_rva();
  s.header.VirtualSize =
      virtual_size.value_or(static_cast<std::uint32_t>(data.size()));
  MC_CHECK(s.header.VirtualSize >= data.size() || virtual_size.has_value(),
           "virtual size smaller than data");
  s.header.SizeOfRawData =
      align_up(static_cast<std::uint32_t>(data.size()), kDefaultFileAlignment);
  s.header.Characteristics = characteristics;
  for (const std::uint32_t off : fixup_offsets) {
    MC_CHECK(off + 4 <= data.size(), "fixup outside section data");
    fixup_rvas_.push_back(s.header.VirtualAddress + off);
  }
  s.data = std::move(data);
  sections_.push_back(std::move(s));
  return *this;
}

PeBuilder& PeBuilder::add_import_section(const std::vector<ImportDll>& dlls) {
  const std::uint32_t rva = next_section_rva();
  ImportLayout layout = build_import_section(dlls, rva);
  directories_[kDirImport] = {rva, layout.descriptors_size};
  // IATs are rewritten by the loader at bind time, hence read/write data.
  add_section(".idata", std::move(layout.data),
              kScnCntInitializedData | kScnMemRead | kScnMemWrite);
  return *this;
}

PeBuilder& PeBuilder::add_export_section(std::vector<ExportedSymbol> symbols) {
  const std::uint32_t rva = next_section_rva();
  Bytes data = build_export_section(module_name_, std::move(symbols), rva);
  directories_[kDirExport] = {rva, static_cast<std::uint32_t>(data.size())};
  add_section(".edata", std::move(data),
              kScnCntInitializedData | kScnMemRead);
  return *this;
}

PeBuilder& PeBuilder::add_resource_section(const VersionInfo& version) {
  const std::uint32_t rva = next_section_rva();
  Bytes data = build_resource_section(version, rva);
  directories_[kDirResource] = {rva, static_cast<std::uint32_t>(data.size())};
  add_section(".rsrc", std::move(data),
              kScnCntInitializedData | kScnMemRead);
  return *this;
}

PeBuilder& PeBuilder::add_reloc_section() {
  const std::uint32_t rva = next_section_rva();
  Bytes data = encode_base_relocations(fixup_rvas_);
  directories_[kDirBaseReloc] = {rva, static_cast<std::uint32_t>(data.size())};
  add_section(".reloc", std::move(data),
              kScnCntInitializedData | kScnMemRead | kScnMemDiscardable);
  return *this;
}

Bytes PeBuilder::build() const {
  MC_CHECK(!sections_.empty(), "image needs at least one section");

  const std::uint32_t e_lfanew =
      static_cast<std::uint32_t>(kDosHeaderSize + dos_stub_.size());
  const std::uint32_t headers_end = static_cast<std::uint32_t>(
      e_lfanew + kNtHeadersPrefixSize + kOptionalHeader32Size +
      sections_.size() * kSectionHeaderSize);
  const std::uint32_t size_of_headers =
      align_up(headers_end, kDefaultFileAlignment);
  MC_CHECK(size_of_headers <= kDefaultSectionAlignment,
           "headers overflow the first page");

  // Assign file offsets.
  std::vector<SectionHeader> headers;
  headers.reserve(sections_.size());
  std::uint32_t raw_cursor = size_of_headers;
  for (const auto& s : sections_) {
    SectionHeader h = s.header;
    h.PointerToRawData = (h.SizeOfRawData == 0) ? 0 : raw_cursor;
    raw_cursor += h.SizeOfRawData;
    headers.push_back(h);
  }

  // Optional header aggregates.
  OptionalHeader32 opt;
  opt.ImageBase = image_base_;
  opt.AddressOfEntryPoint = entry_point_rva_;
  opt.SizeOfHeaders = size_of_headers;
  opt.DataDirectories = directories_;
  std::uint32_t size_of_image = kDefaultSectionAlignment;
  for (const auto& h : headers) {
    size_of_image =
        std::max(size_of_image, align_up(h.VirtualAddress +
                                             std::max(h.VirtualSize, 1u),
                                         kDefaultSectionAlignment));
    if (h.is_code()) {
      if (opt.BaseOfCode == 0) {
        opt.BaseOfCode = h.VirtualAddress;
      }
      opt.SizeOfCode += h.SizeOfRawData;
    } else if ((h.Characteristics & kScnCntInitializedData) != 0) {
      if (opt.BaseOfData == 0) {
        opt.BaseOfData = h.VirtualAddress;
      }
      opt.SizeOfInitializedData += h.SizeOfRawData;
    }
  }
  opt.SizeOfImage = size_of_image;

  FileHeader file_header;
  file_header.NumberOfSections = static_cast<std::uint16_t>(sections_.size());
  file_header.TimeDateStamp = timestamp_;
  file_header.Characteristics = static_cast<std::uint16_t>(
      kFileExecutableImage | kFile32BitMachine | kFileLineNumsStripped |
      (is_dll_ ? kFileDll : 0));

  DosHeader dos;
  dos.e_lfanew = e_lfanew;

  // ---- serialize ------------------------------------------------------------
  Bytes out;
  out.reserve(raw_cursor);
  dos.serialize(out);
  append_bytes(out, dos_stub_);
  append_le32(out, kNtSignature);
  file_header.serialize(out);
  const std::size_t checksum_offset = out.size() + 64;  // CheckSum in optional
  opt.serialize(out);
  for (const auto& h : headers) {
    h.serialize(out);
  }
  out.resize(size_of_headers, 0);

  for (std::size_t i = 0; i < sections_.size(); ++i) {
    MC_CHECK(out.size() == headers[i].PointerToRawData ||
                 headers[i].SizeOfRawData == 0,
             "raw data cursor mismatch");
    append_bytes(out, sections_[i].data);
    out.resize(out.size() + (headers[i].SizeOfRawData - sections_[i].data.size()),
               0);
  }

  // Valid PE checksum (the field was serialized as 0 above).
  const std::uint32_t checksum = compute_pe_checksum(out, checksum_offset);
  store_le32(out, checksum_offset, checksum);
  return out;
}

std::uint32_t compute_pe_checksum(ByteView file, std::size_t checksum_offset) {
  // Standard algorithm: 16-bit one's-complement-style sum with carry folding,
  // skipping the CheckSum dword itself, plus the file length.
  std::uint64_t sum = 0;
  const std::size_t n = file.size();
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    if (i >= checksum_offset && i < checksum_offset + 4) {
      continue;
    }
    sum += load_le16(file, i);
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  if (n % 2 != 0) {
    sum += file[n - 1];
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint32_t>(sum + n);
}

}  // namespace mc::pe
