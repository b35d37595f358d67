#include "attacks/hollowing.hpp"

#include <algorithm>

#include "attacks/guest_writer.hpp"
#include "pe/parser.hpp"
#include "util/error.hpp"

namespace mc::attacks {

AttackResult HollowingAttack::apply(cloud::CloudEnvironment& env,
                                    vmm::DomainId vm,
                                    const std::string& module) const {
  MC_CHECK(!guestos::module_name_equals(donor_, module),
           "donor and victim must differ");
  GuestMemoryWriter writer(env, vm);

  std::uint32_t victim_base = 0;
  const Bytes victim = writer.read_module_image(module, &victim_base);
  // Attacker's-eye parse of the victim image; mc-lint: allow(format-bypass)
  const pe::ParsedImage victim_parsed{ByteView(victim)};
  const pe::SectionHeader* victim_text = victim_parsed.find_section(".text");
  MC_CHECK(victim_text != nullptr, "victim has no .text");

  std::uint32_t donor_base = 0;
  const Bytes donor = writer.read_module_image(donor_, &donor_base);
  // Attacker's-eye parse of the donor image; mc-lint: allow(format-bypass)
  const pe::ParsedImage donor_parsed{ByteView(donor)};
  const pe::SectionHeader* donor_text = donor_parsed.find_section(".text");
  MC_CHECK(donor_text != nullptr, "donor has no .text");

  // Transplant: fill the victim's executable region with the donor's code
  // (repeated if the donor is smaller — what real hollowing pads with
  // sleds; sizes and headers stay untouched).
  Bytes payload(victim_text->VirtualSize);
  const ByteView donor_code =
      ByteView(donor).subspan(donor_text->VirtualAddress,
                              donor_text->VirtualSize);
  for (std::size_t off = 0; off < payload.size();
       off += donor_code.size()) {
    const std::size_t take =
        std::min(donor_code.size(), payload.size() - off);
    std::copy_n(donor_code.begin(), take,
                payload.begin() + static_cast<std::ptrdiff_t>(off));
  }
  writer.write(victim_base + victim_text->VirtualAddress, payload);

  AttackResult result;
  result.attack_name = name();
  result.description = ".text of " + module + " hollowed with code from " +
                       donor_ + " (headers and loader metadata untouched)";
  result.expected_flagged = {".text"};
  result.infects_disk_file = false;
  return result;
}

}  // namespace mc::attacks
