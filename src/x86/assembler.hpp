// Tiny x86-32 assembler.
//
// Emits the instruction subset needed to synthesize realistic kernel-module
// .text sections: position-independent ALU/flow ops plus *address-bearing*
// instructions (absolute moffs loads/stores, mov reg,imm32 with an address
// operand, indirect calls through IAT slots).  Every absolute address
// operand is recorded as a fixup so the PE builder can emit real base
// relocations — the divergence mechanism ModChecker's Algorithm 2 undoes.
//
// The encodings are genuine IA-32 (e.g. DEC ECX = 0x49, SUB ECX,imm8 =
// 0x83 0xE9 ib — the exact pair used in the paper's single-opcode-
// replacement experiment E1).
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace mc::x86 {

enum class Reg : std::uint8_t {
  kEax = 0,
  kEcx = 1,
  kEdx = 2,
  kEbx = 3,
  kEsp = 4,
  kEbp = 5,
  kEsi = 6,
  kEdi = 7,
};

class Assembler {
 public:
  const Bytes& code() const { return code_; }
  Bytes take_code() { return std::move(code_); }
  /// Offsets (within the emitted code) of 32-bit absolute-address operands.
  const std::vector<std::uint32_t>& fixups() const { return fixups_; }

  std::uint32_t size() const { return static_cast<std::uint32_t>(code_.size()); }

  // ---- position-independent instructions -----------------------------------
  void nop();                          // 90
  void ret();                          // C3
  void int3();                         // CC
  void push_ebp();                     // 55
  void pop_ebp();                      // 5D
  void mov_ebp_esp();                  // 89 E5
  void inc_eax();                      // 40
  void dec_ecx();                      // 49
  void xor_eax_eax();                  // 31 C0
  void test_eax_eax();                 // 85 C0
  void push_reg(Reg reg);              // 50+r
  void pop_reg(Reg reg);               // 58+r
  void sub_ecx_imm8(std::uint8_t imm); // 83 E9 ib
  void add_eax_imm32(std::uint32_t v); // 05 id
  void or_eax_imm32(std::uint32_t v);  // 0D id
  void and_eax_imm32(std::uint32_t v); // 25 id
  void cmp_eax_imm32(std::uint32_t v); // 3D id
  void mov_reg_imm32(Reg reg, std::uint32_t value);  // B8+r id (plain value)
  void jz_rel8(std::int8_t rel);       // 74 cb
  void jnz_rel8(std::int8_t rel);      // 75 cb
  void call_rel32(std::int32_t rel);   // E8 cd
  void jmp_rel32(std::int32_t rel);    // E9 cd

  /// call/jmp with the relative displacement computed so control reaches
  /// `target_offset` (an offset within this same code blob).
  void call_to(std::uint32_t target_offset);
  void jmp_to(std::uint32_t target_offset);

  // ---- address-bearing instructions (recorded as fixups) --------------------
  void mov_eax_abs(std::uint32_t va);      // A1 moffs32   (load)
  void mov_abs_eax(std::uint32_t va);      // A3 moffs32   (store)
  void mov_reg_addr(Reg reg, std::uint32_t va);  // B8+r with VA operand
  void push_addr(std::uint32_t va);        // 68 with VA operand
  void call_indirect_abs(std::uint32_t va);  // FF 15 moffs32 (call [IAT slot])

  /// Emits `count` zero bytes — an "opcode cave" in the paper's terminology
  /// (§V-B.2: "non-executable code segments, known as opcode caves, such as
  /// 00 instructions").
  void cave(std::uint32_t count);

  /// Raw escape hatch for attack payload construction.
  void raw(ByteView bytes);

 private:
  void emit(std::uint8_t byte) { code_.push_back(byte); }
  void emit_le32(std::uint32_t v) { append_le32(code_, v); }
  void emit_addr32(std::uint32_t va) {
    fixups_.push_back(size());
    emit_le32(va);
  }

  Bytes code_;
  std::vector<std::uint32_t> fixups_;
};

}  // namespace mc::x86
