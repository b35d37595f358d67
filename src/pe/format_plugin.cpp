// The PE32 format plugin — the one TU where the checking pipeline's view
// of PE parsing lives (mc_analyze's format-bypass rule keeps ParsedImage
// construction confined to src/pe/).
//
// extract_items is the ParsedImage walk over the image's view: every item
// it returns is a subview of that view, whether the view borrows guest
// frames or one owned buffer (tests/format_plugin_test.cpp checks the
// plugin against the direct walk).
#include "modchecker/format.hpp"
#include "pe/constants.hpp"
#include "pe/parser.hpp"

namespace mc::pe {

namespace {

class Pe32Format final : public core::ModuleFormat {
 public:
  core::ModuleFormatId id() const override {
    return core::ModuleFormatId::kPe32;
  }

  std::string_view name() const override { return "pe32"; }

  bool detect(ByteView header) const override {
    return header.size() >= 2 && load_le16(header, 0) == kDosMagic;
  }

  std::vector<core::IntegrityItem> extract_items(
      const core::ModuleImage& image) const override {
    return ParsedImage(image.view).extract_items(image.view);
  }

  core::FixupPolicy fixup_policy() const override {
    // The loader patches 4-byte absolute addresses against the 32-bit
    // load base — the paper's original Algorithm 2 shape.
    return core::FixupPolicy{};
  }
};

}  // namespace

}  // namespace mc::pe

namespace mc::core {

const ModuleFormat& pe32_format() {
  static const pe::Pe32Format format;
  return format;
}

}  // namespace mc::core
