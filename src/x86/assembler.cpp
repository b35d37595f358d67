#include "x86/assembler.hpp"

#include "util/error.hpp"

namespace mc::x86 {

void Assembler::nop() { emit(0x90); }
void Assembler::ret() { emit(0xC3); }
void Assembler::int3() { emit(0xCC); }
void Assembler::push_ebp() { emit(0x55); }
void Assembler::pop_ebp() { emit(0x5D); }

void Assembler::mov_ebp_esp() {
  emit(0x89);
  emit(0xE5);
}

void Assembler::inc_eax() { emit(0x40); }
void Assembler::dec_ecx() { emit(0x49); }

void Assembler::xor_eax_eax() {
  emit(0x31);
  emit(0xC0);
}

void Assembler::test_eax_eax() {
  emit(0x85);
  emit(0xC0);
}

void Assembler::push_reg(Reg reg) {
  emit(static_cast<std::uint8_t>(0x50 + static_cast<std::uint8_t>(reg)));
}

void Assembler::pop_reg(Reg reg) {
  emit(static_cast<std::uint8_t>(0x58 + static_cast<std::uint8_t>(reg)));
}

void Assembler::or_eax_imm32(std::uint32_t v) {
  emit(0x0D);
  emit_le32(v);
}

void Assembler::and_eax_imm32(std::uint32_t v) {
  emit(0x25);
  emit_le32(v);
}

void Assembler::sub_ecx_imm8(std::uint8_t imm) {
  emit(0x83);
  emit(0xE9);
  emit(imm);
}

void Assembler::add_eax_imm32(std::uint32_t v) {
  emit(0x05);
  emit_le32(v);
}

void Assembler::cmp_eax_imm32(std::uint32_t v) {
  emit(0x3D);
  emit_le32(v);
}

void Assembler::mov_reg_imm32(Reg reg, std::uint32_t value) {
  emit(static_cast<std::uint8_t>(0xB8 + static_cast<std::uint8_t>(reg)));
  emit_le32(value);
}

void Assembler::jz_rel8(std::int8_t rel) {
  emit(0x74);
  emit(static_cast<std::uint8_t>(rel));
}

void Assembler::jnz_rel8(std::int8_t rel) {
  emit(0x75);
  emit(static_cast<std::uint8_t>(rel));
}

void Assembler::call_rel32(std::int32_t rel) {
  emit(0xE8);
  emit_le32(static_cast<std::uint32_t>(rel));
}

void Assembler::jmp_rel32(std::int32_t rel) {
  emit(0xE9);
  emit_le32(static_cast<std::uint32_t>(rel));
}

void Assembler::call_to(std::uint32_t target_offset) {
  const std::int64_t rel =
      static_cast<std::int64_t>(target_offset) - (size() + 5);
  call_rel32(static_cast<std::int32_t>(rel));
}

void Assembler::jmp_to(std::uint32_t target_offset) {
  const std::int64_t rel =
      static_cast<std::int64_t>(target_offset) - (size() + 5);
  jmp_rel32(static_cast<std::int32_t>(rel));
}

void Assembler::mov_eax_abs(std::uint32_t va) {
  emit(0xA1);
  emit_addr32(va);
}

void Assembler::mov_abs_eax(std::uint32_t va) {
  emit(0xA3);
  emit_addr32(va);
}

void Assembler::mov_reg_addr(Reg reg, std::uint32_t va) {
  emit(static_cast<std::uint8_t>(0xB8 + static_cast<std::uint8_t>(reg)));
  emit_addr32(va);
}

void Assembler::push_addr(std::uint32_t va) {
  emit(0x68);
  emit_addr32(va);
}

void Assembler::call_indirect_abs(std::uint32_t va) {
  emit(0xFF);
  emit(0x15);
  // IAT slot address: relocated by the loader via the image's .reloc records
  // (the *contents* of the slot are separately bound at import resolution).
  emit_addr32(va);
}

void Assembler::cave(std::uint32_t count) {
  code_.insert(code_.end(), count, 0x00);
}

void Assembler::raw(ByteView bytes) {
  append_bytes(code_, bytes);
}

}  // namespace mc::x86
