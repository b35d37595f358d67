#include "attacks/inline_hook.hpp"

#include "attacks/guest_writer.hpp"
#include "pe/parser.hpp"
#include "util/error.hpp"
#include "x86/assembler.hpp"
#include "x86/decoder.hpp"

namespace mc::attacks {

AttackResult InlineHookAttack::apply(cloud::CloudEnvironment& env,
                                     vmm::DomainId vm,
                                     const std::string& module) const {
  GuestMemoryWriter writer(env, vm);
  std::uint32_t base = 0;
  const Bytes image = writer.read_module_image(module, &base);
  // Attacker's-eye parse of the victim image; mc-lint: allow(format-bypass)
  const pe::ParsedImage parsed{ByteView(image)};

  const pe::SectionHeader* text = parsed.find_section(".text");
  MC_CHECK(text != nullptr, "module has no .text section");
  const ByteView text_data =
      ByteView(image).subspan(text->VirtualAddress, text->VirtualSize);

  // Entry function offset inside .text.
  const std::uint32_t entry_rva = parsed.optional_header().AddressOfEntryPoint;
  MC_CHECK(entry_rva >= text->VirtualAddress &&
               entry_rva < text->VirtualAddress + text->VirtualSize,
           "entry point outside .text");
  const std::uint32_t entry_off = entry_rva - text->VirtualAddress;

  // Displace whole instructions covering at least the 5-byte jmp.
  const auto covered = x86::cover_instructions(text_data, entry_off, 5);
  MC_CHECK(covered.has_value(), "cannot decode entry prologue");

  // Malicious stub: trivial position-independent payload (a real rootkit
  // would redirect arguments / filter results here).
  x86::Assembler payload;
  payload.xor_eax_eax();
  payload.inc_eax();
  payload.inc_eax();
  // Sanitation: replay the displaced original instructions.
  payload.raw(text_data.subspan(entry_off, *covered));
  const std::uint32_t payload_tail = payload.size();

  const std::uint32_t needed = payload_tail + 5;  // + jmp back

  // Find an opcode cave large enough, far enough from the entry that the
  // hook and payload do not overlap.
  const auto caves = x86::find_caves(text_data, needed);
  const x86::Cave* chosen = nullptr;
  for (const auto& cave : caves) {
    const bool overlaps = cave.offset < entry_off + *covered &&
                          entry_off < cave.offset + cave.length;
    if (!overlaps) {
      chosen = &cave;
      break;
    }
  }
  MC_CHECK(chosen != nullptr, "no opcode cave large enough for payload");

  // Back edge: from (cave + payload_tail) to (entry + covered).
  const std::int64_t back_rel =
      static_cast<std::int64_t>(entry_off + *covered) -
      (static_cast<std::int64_t>(chosen->offset) + payload_tail + 5);
  payload.jmp_rel32(static_cast<std::int32_t>(back_rel));

  // Hook: jmp from entry to cave, NOP-pad the displaced remainder.
  x86::Assembler hook;
  const std::int64_t fwd_rel = static_cast<std::int64_t>(chosen->offset) -
                               (static_cast<std::int64_t>(entry_off) + 5);
  hook.jmp_rel32(static_cast<std::int32_t>(fwd_rel));
  for (std::uint32_t i = 5; i < *covered; ++i) {
    hook.nop();
  }

  const std::uint32_t text_va = base + text->VirtualAddress;
  writer.write(text_va + chosen->offset, payload.code());
  writer.write(text_va + entry_off, hook.code());

  AttackResult result;
  result.attack_name = name();
  result.description = "entry of " + module +
                       " hooked with jmp to opcode-cave payload (" +
                       std::to_string(needed) + " bytes)";
  result.expected_flagged = {".text"};
  result.infects_disk_file = false;  // memory-only, disk copy stays clean
  return result;
}

}  // namespace mc::attacks
