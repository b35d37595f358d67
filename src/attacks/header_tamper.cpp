#include "attacks/header_tamper.hpp"

#include "attacks/guest_writer.hpp"
#include "pe/constants.hpp"
#include "pe/parser.hpp"

namespace mc::attacks {

AttackResult HeaderTamperAttack::apply(cloud::CloudEnvironment& env,
                                       vmm::DomainId vm,
                                       const std::string& module) const {
  GuestMemoryWriter writer(env, vm);
  std::uint32_t base = 0;
  const Bytes image = writer.read_module_image(module, &base);
  // Attacker's-eye parse of the victim image; mc-lint: allow(format-bypass)
  const pe::ParsedImage parsed{ByteView(image)};

  // AddressOfEntryPoint lives at optional-header offset 16.
  const std::uint32_t field_va = base + parsed.e_lfanew() +
                                 static_cast<std::uint32_t>(pe::kNtHeadersPrefixSize) +
                                 16;
  const std::uint32_t original = parsed.optional_header().AddressOfEntryPoint;
  std::uint8_t patched[4];
  store_le32(MutableByteView(patched, 4), 0, original + 0x20);
  writer.write(field_va, ByteView(patched, 4));

  AttackResult result;
  result.attack_name = name();
  result.description =
      "AddressOfEntryPoint of loaded " + module + " redirected (+0x20)";
  result.expected_flagged = {"IMAGE_OPTIONAL_HEADER"};
  result.infects_disk_file = false;
  return result;
}

}  // namespace mc::attacks
