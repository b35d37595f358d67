#include "baselines/disk_crossview.hpp"

#include "crypto/md5.hpp"
#include "pe/constants.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"
#include "pe/reloc.hpp"
#include "util/error.hpp"

namespace mc::baselines {

Bytes simulate_load(ByteView file, std::uint32_t actual_base) {
  Bytes mapped = pe::map_image(file);
  // Rival baseline parses the PE directly by design; mc-lint: allow(format-bypass)
  const pe::ParsedImage parsed{ByteView(mapped)};
  const auto& reloc_dir =
      parsed.optional_header().DataDirectories[pe::kDirBaseReloc];
  if (reloc_dir.VirtualAddress != 0 && reloc_dir.Size != 0) {
    const Bytes reloc_data =
        slice(mapped, reloc_dir.VirtualAddress, reloc_dir.Size);
    const auto fixups = pe::parse_base_relocations(reloc_data);
    pe::apply_relocations(mapped, fixups,
                          actual_base - parsed.optional_header().ImageBase);
  }
  return mapped;
}

std::vector<std::string> diff_integrity_items(ByteView image_a,
                                              ByteView image_b) {
  const auto items_a = pe::ParsedImage(image_a).extract_items(image_a);  // mc-lint: allow(format-bypass)
  const auto items_b = pe::ParsedImage(image_b).extract_items(image_b);  // mc-lint: allow(format-bypass)

  std::vector<std::string> mismatched;
  std::vector<bool> b_used(items_b.size(), false);
  for (const auto& a : items_a) {
    const core::IntegrityItem* match = nullptr;
    for (std::size_t j = 0; j < items_b.size(); ++j) {
      if (!b_used[j] && items_b[j].kind == a.kind && items_b[j].name == a.name) {
        b_used[j] = true;
        match = &items_b[j];
        break;
      }
    }
    if (match == nullptr ||
        crypto::Md5::hash(a.content_copy()) !=
            crypto::Md5::hash(match->content_copy())) {
      mismatched.push_back(a.name);
    }
  }
  for (std::size_t j = 0; j < items_b.size(); ++j) {
    if (!b_used[j]) {
      mismatched.push_back(items_b[j].name);
    }
  }
  return mismatched;
}

DetectionOutcome DiskCrossViewChecker::check(const cloud::CloudEnvironment& env,
                                             vmm::DomainId vm,
                                             const std::string& module) const {
  DetectionOutcome out;
  const auto* record = env.loader(vm).find(module);
  if (record == nullptr) {
    out.flagged = true;
    out.detail = "module not in loader list";
    return out;
  }

  Bytes memory_image(record->size_of_image, 0);
  env.kernel(vm).address_space().read_virtual(record->base, memory_image);

  if (!env.disk_has(vm, module)) {
    out.flagged = true;
    out.detail = "no disk file to cross-view against";
    return out;
  }
  const Bytes reference = simulate_load(env.disk_file(vm, module),
                                        record->base);

  const auto mismatched = diff_integrity_items(memory_image, reference);
  if (!mismatched.empty()) {
    out.flagged = true;
    out.detail = "memory diverges from disk at: ";
    for (std::size_t i = 0; i < mismatched.size(); ++i) {
      out.detail += (i ? ", " : "") + mismatched[i];
    }
    return out;
  }
  out.detail = "memory image consistent with disk file";
  return out;
}

}  // namespace mc::baselines
