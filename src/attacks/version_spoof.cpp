#include "attacks/version_spoof.hpp"

#include "attacks/guest_writer.hpp"
#include "pe/constants.hpp"
#include "pe/parser.hpp"
#include "pe/resources.hpp"
#include "util/error.hpp"

namespace mc::attacks {

AttackResult VersionSpoofAttack::apply(cloud::CloudEnvironment& env,
                                       vmm::DomainId vm,
                                       const std::string& module) const {
  GuestMemoryWriter writer(env, vm);
  std::uint32_t base = 0;
  const Bytes image = writer.read_module_image(module, &base);
  // Attacker's-eye parse of the victim image; mc-lint: allow(format-bypass)
  const pe::ParsedImage parsed{ByteView(image)};

  const auto& resource_dir =
      parsed.optional_header().DataDirectories[pe::kDirResource];
  MC_CHECK(resource_dir.VirtualAddress != 0,
           "module has no resource section");
  const auto info_rva =
      pe::find_fixed_file_info_rva(image, resource_dir.VirtualAddress);
  MC_CHECK(info_rva.has_value(), "module has no version resource");

  // Bump FileVersion to a plausible "update": major.minor+1, build 9999.
  const std::uint32_t old_ms = load_le32(image, *info_rva + 8);
  std::uint8_t patched[8];
  store_le32(MutableByteView(patched, 8), 0, old_ms + 0x00000001);
  store_le32(MutableByteView(patched, 8), 4, 9999u << 16);
  writer.write(base + *info_rva + 8, ByteView(patched, 8));

  AttackResult result;
  result.attack_name = name();
  result.description =
      "VS_FIXEDFILEINFO of " + module + " bumped to fake an update";
  result.expected_flagged = {".rsrc"};
  result.infects_disk_file = false;
  return result;
}

}  // namespace mc::attacks
