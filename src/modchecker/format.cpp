#include "modchecker/format.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mc::core {

std::string to_string(ModuleFormatId id) {
  switch (id) {
    case ModuleFormatId::kAuto:
      return "auto";
    case ModuleFormatId::kPe32:
      return "pe32";
    case ModuleFormatId::kElf64:
      return "elf64";
  }
  return "?";
}

ModuleFormatId parse_module_format(std::string_view name) {
  if (name == "auto") {
    return ModuleFormatId::kAuto;
  }
  if (name == "pe32") {
    return ModuleFormatId::kPe32;
  }
  if (name == "elf64") {
    return ModuleFormatId::kElf64;
  }
  throw InvalidArgument("unknown module format: " + std::string(name) +
                        " (expected auto, pe32 or elf64)");
}

std::size_t read_image_header(const ModuleImage& image, MutableByteView dst) {
  const std::size_t n =
      std::min({dst.size(), kFormatSniffBytes, image.size()});
  image.view.read_into(0, dst.first(n));
  return n;
}

FormatRegistry::FormatRegistry()
    : formats_{&pe32_format(), &elf64_format()} {}

const FormatRegistry& FormatRegistry::process_default() {
  static const FormatRegistry registry;
  return registry;
}

const ModuleFormat* FormatRegistry::detect(ByteView header) const {
  for (const ModuleFormat* format : formats_) {
    if (format->detect(header)) {
      return format;
    }
  }
  return nullptr;
}

const ModuleFormat* FormatRegistry::find(ModuleFormatId id) const {
  for (const ModuleFormat* format : formats_) {
    if (format->id() == id) {
      return format;
    }
  }
  return nullptr;
}

const ModuleFormat& FormatRegistry::resolve(const ModuleImage& image,
                                            ModuleFormatId wanted) const {
  if (wanted != ModuleFormatId::kAuto) {
    const ModuleFormat* format = find(wanted);
    MC_CHECK(format != nullptr, "format plugin not registered");
    return *format;
  }
  std::array<std::uint8_t, kFormatSniffBytes> header{};
  const std::size_t n = read_image_header(image, MutableByteView(header));
  const ModuleFormat* format = detect(ByteView(header.data(), n));
  if (format == nullptr) {
    // Unrecognized magic is a data problem, not a caller bug: the
    // pipeline's tolerant parse records it as a parse_failed finding.
    throw FormatError("unrecognized module format magic");
  }
  return *format;
}

}  // namespace mc::core
