#include "attacks/eat_hook.hpp"

#include "attacks/guest_writer.hpp"
#include "pe/constants.hpp"
#include "pe/exports.hpp"
#include "pe/parser.hpp"
#include "util/error.hpp"

namespace mc::attacks {

AttackResult EatHookAttack::apply(cloud::CloudEnvironment& env,
                                  vmm::DomainId vm,
                                  const std::string& module) const {
  GuestMemoryWriter writer(env, vm);
  std::uint32_t base = 0;
  const Bytes image = writer.read_module_image(module, &base);
  // Attacker's-eye parse of the victim image; mc-lint: allow(format-bypass)
  const pe::ParsedImage parsed{ByteView(image)};

  const auto& export_dir =
      parsed.optional_header().DataDirectories[pe::kDirExport];
  MC_CHECK(export_dir.VirtualAddress != 0, "module exports nothing to hook");

  // The EAT's RVA lives at export-directory offset 28 (AddressOfFunctions);
  // redirect the first function's slot.
  const std::uint32_t eat_rva =
      load_le32(image, export_dir.VirtualAddress + 28);
  const std::uint32_t original = load_le32(image, eat_rva);

  std::uint8_t patched[4];
  // Point the export at an attacker-chosen RVA (end of .text, where a cave
  // payload would sit; the value matters only for detection semantics).
  store_le32(MutableByteView(patched, 4), 0, original + 0x40);
  writer.write(base + eat_rva, ByteView(patched, 4));

  const auto symbols = pe::parse_export_directory(image,
                                                  export_dir.VirtualAddress);
  AttackResult result;
  result.attack_name = name();
  result.description = "EAT slot of " + module + " (first export, '" +
                       (symbols.empty() ? "?" : symbols.front().name) +
                       "') redirected";
  result.expected_flagged = {".edata"};
  result.infects_disk_file = false;
  return result;
}

}  // namespace mc::attacks
