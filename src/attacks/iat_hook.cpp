#include "attacks/iat_hook.hpp"

#include "attacks/guest_writer.hpp"
#include "pe/constants.hpp"
#include "pe/imports.hpp"
#include "pe/parser.hpp"
#include "util/error.hpp"

namespace mc::attacks {

AttackResult IatHookAttack::apply(cloud::CloudEnvironment& env,
                                  vmm::DomainId vm,
                                  const std::string& module) const {
  GuestMemoryWriter writer(env, vm);
  std::uint32_t base = 0;
  const Bytes image = writer.read_module_image(module, &base);
  // Attacker's-eye parse of the victim image; mc-lint: allow(format-bypass)
  const pe::ParsedImage parsed{ByteView(image)};

  const auto& import_dir =
      parsed.optional_header().DataDirectories[pe::kDirImport];
  MC_CHECK(import_dir.VirtualAddress != 0, "module has no imports to hook");
  const auto dlls =
      pe::parse_import_directory(image, import_dir.VirtualAddress);
  MC_CHECK(!dlls.empty() && !dlls[0].iat_rvas.empty(),
           "no IAT slots to hook");

  // Redirect the first slot to an attacker-controlled address (a payload
  // the rootkit placed elsewhere in kernel space; the value itself is what
  // matters for the detection question).
  const std::uint32_t slot_va = base + dlls[0].iat_rvas[0];
  std::uint8_t evil[4];
  store_le32(MutableByteView(evil, 4), 0, 0xDEAD1000u);
  writer.write(slot_va, ByteView(evil, 4));

  AttackResult result;
  result.attack_name = name();
  result.description = "IAT slot " + dlls[0].dll_name + "!" +
                       dlls[0].function_names[0] + " of " + module +
                       " redirected to attacker payload";
  result.expected_flagged = {};           // writable .idata is not hashed
  result.detectable_by_modchecker = false;  // documented limitation
  result.infects_disk_file = false;
  return result;
}

}  // namespace mc::attacks
