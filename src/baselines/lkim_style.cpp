#include "baselines/lkim_style.hpp"

#include "baselines/disk_crossview.hpp"
#include "pe/constants.hpp"
#include "pe/imports.hpp"
#include "pe/parser.hpp"
#include "util/error.hpp"

namespace mc::baselines {

DetectionOutcome LkimStyleChecker::check(const cloud::CloudEnvironment& env,
                                         vmm::DomainId vm,
                                         const std::string& module) const {
  DetectionOutcome out;
  const auto* record = env.loader(vm).find(module);
  if (record == nullptr) {
    out.flagged = true;
    out.detail = "module not in loader list";
    return out;
  }

  const auto repo_it = repository_.find(module);
  if (repo_it == repository_.end()) {
    out.flagged = true;
    out.detail = "module absent from trusted repository";
    return out;
  }

  Bytes memory_image(record->size_of_image, 0);
  env.kernel(vm).address_space().read_virtual(record->base, memory_image);

  // Simulate loading the untainted copy at the guest's actual base.
  const Bytes reference = simulate_load(repo_it->second, record->base);

  auto mismatched = diff_integrity_items(memory_image, reference);

  // Dynamic-data pass: each bound IAT slot must hold the address the
  // provider module exports for that function.
  // Rival baseline parses the PE directly by design; mc-lint: allow(format-bypass)
  const pe::ParsedImage parsed{ByteView(memory_image)};
  const auto& import_dir =
      parsed.optional_header().DataDirectories[pe::kDirImport];
  if (import_dir.VirtualAddress != 0 &&
      import_dir.VirtualAddress < memory_image.size()) {
    for (const auto& dll :
         pe::parse_import_directory(memory_image, import_dir.VirtualAddress)) {
      const auto* provider = env.loader(vm).find(dll.dll_name);
      if (provider == nullptr) {
        mismatched.push_back("IAT[" + dll.dll_name + "] (provider missing)");
        continue;
      }
      for (std::size_t f = 0; f < dll.function_names.size(); ++f) {
        const auto exp = provider->exports.find(dll.function_names[f]);
        if (exp == provider->exports.end()) {
          mismatched.push_back("IAT[" + dll.dll_name + "!" +
                               dll.function_names[f] + "] (not exported)");
          continue;
        }
        const std::uint32_t slot =
            load_le32(memory_image, dll.iat_rvas[f]);
        if (slot != exp->second) {
          mismatched.push_back("IAT[" + dll.dll_name + "!" +
                               dll.function_names[f] + "]");
        }
      }
    }
  }

  if (!mismatched.empty()) {
    out.flagged = true;
    out.detail = "diverges from trusted copy at: ";
    for (std::size_t i = 0; i < mismatched.size(); ++i) {
      out.detail += (i ? ", " : "") + mismatched[i];
    }
    return out;
  }
  out.detail = "matches simulated load of trusted copy";
  return out;
}

}  // namespace mc::baselines
