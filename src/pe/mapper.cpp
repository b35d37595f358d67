#include "pe/mapper.hpp"

#include <algorithm>

#include "pe/constants.hpp"
#include "pe/structs.hpp"
#include "util/error.hpp"

namespace mc::pe {

namespace {
std::size_t optional_header_offset(ByteView image, const DosHeader& dos) {
  if (dos.e_magic != kDosMagic) {
    throw FormatError("missing MZ magic");
  }
  if (load_le32(image, dos.e_lfanew) != kNtSignature) {
    throw FormatError("missing PE signature");
  }
  return dos.e_lfanew + kNtHeadersPrefixSize;
}
}  // namespace

Bytes map_image(ByteView file) {
  const DosHeader dos = DosHeader::parse(file);
  const std::size_t opt_off = optional_header_offset(file, dos);
  const FileHeader fh = FileHeader::parse(file, dos.e_lfanew + 4);
  const OptionalHeader32 opt = OptionalHeader32::parse(file, opt_off);

  Bytes mapped(opt.SizeOfImage, 0);
  const std::size_t header_bytes =
      std::min<std::size_t>(opt.SizeOfHeaders, file.size());
  std::copy_n(file.begin(), header_bytes, mapped.begin());

  std::size_t sec_off = opt_off + fh.SizeOfOptionalHeader;
  for (std::uint16_t i = 0; i < fh.NumberOfSections; ++i) {
    const SectionHeader sh = SectionHeader::parse(file, sec_off);
    sec_off += kSectionHeaderSize;
    if (sh.SizeOfRawData == 0) {
      continue;
    }
    if (sh.PointerToRawData + sh.SizeOfRawData > file.size() ||
        sh.VirtualAddress + sh.SizeOfRawData > mapped.size()) {
      throw FormatError("section '" + sh.name() + "' outside image bounds");
    }
    // Copy at most the virtual region; the loader never maps raw padding
    // beyond the aligned virtual size.
    const std::uint32_t copy_len = std::min(
        sh.SizeOfRawData,
        align_up(std::max(sh.VirtualSize, 1u), kDefaultSectionAlignment));
    std::copy_n(file.begin() + sh.PointerToRawData, copy_len,
                mapped.begin() + sh.VirtualAddress);
  }
  return mapped;
}

}  // namespace mc::pe
