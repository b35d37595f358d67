// The ELF64 format plugin — the one TU where the checking pipeline's view
// of ELF parsing lives (mc_analyze's format-bypass rule keeps ElfImage
// construction confined to src/elf/).
#include "elf/constants.hpp"
#include "elf/parser.hpp"
#include "modchecker/format.hpp"

namespace mc::elf {

namespace {

class Elf64Format final : public core::ModuleFormat {
 public:
  core::ModuleFormatId id() const override {
    return core::ModuleFormatId::kElf64;
  }

  std::string_view name() const override { return "elf64"; }

  bool detect(ByteView header) const override {
    return header.size() >= kEiData + 1 && header[0] == kElfMag0 &&
           header[1] == kElfMag1 && header[2] == kElfMag2 &&
           header[3] == kElfMag3 && header[kEiClass] == kElfClass64 &&
           header[kEiData] == kElfData2Lsb;
  }

  std::vector<core::IntegrityItem> extract_items(
      const core::ModuleImage& image) const override {
    return ElfImage(image.view).extract_items(image.view);
  }

  core::FixupPolicy fixup_policy() const override {
    // The module loader patches 8-byte R_X86_64_64 absolute addresses and
    // 4-byte R_X86_64_32S truncations against the biased 64-bit kernel
    // address of the 32-bit load base.
    return core::FixupPolicy{8, 4, kKernelBias};
  }
};

}  // namespace

}  // namespace mc::elf

namespace mc::core {

const ModuleFormat& elf64_format() {
  static const elf::Elf64Format format;
  return format;
}

}  // namespace mc::core
