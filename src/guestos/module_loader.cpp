#include "guestos/module_loader.hpp"

#include "pe/constants.hpp"
#include "pe/exports.hpp"
#include "pe/imports.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"
#include "pe/reloc.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace mc::guestos {

const LoadedModule& ModuleLoader::load(const std::string& module_name,
                                       ByteView pe_file) {
  MC_CHECK(find(module_name) == nullptr,
           "module already loaded: " + module_name);

  // 1. Expand file layout to memory layout.
  Bytes mapped = pe::map_image(pe_file);
  // The guest-side loader maps the raw PE itself; mc-lint: allow(format-bypass)
  const pe::ParsedImage parsed{ByteView(mapped)};
  const std::uint32_t preferred_base = parsed.optional_header().ImageBase;
  const std::uint32_t size_of_image = parsed.optional_header().SizeOfImage;

  // 2. Pick the actual base (randomized per VM) and map guest pages.
  const std::uint32_t base = kernel_->map_module_region(size_of_image);

  // 3. Apply base relocations: every absolute address operand gets
  //    (base - preferred_base) added — RVAs become absolute addresses.
  const auto& reloc_dir =
      parsed.optional_header().DataDirectories[pe::kDirBaseReloc];
  if (reloc_dir.VirtualAddress != 0 && reloc_dir.Size != 0) {
    const Bytes reloc_data =
        slice(mapped, reloc_dir.VirtualAddress, reloc_dir.Size);
    const auto fixups = pe::parse_base_relocations(reloc_data);
    pe::apply_relocations(mapped, fixups, base - preferred_base);
  }

  // 4. Bind imports: write the absolute VA of each imported function into
  //    its IAT slot.
  const auto& import_dir =
      parsed.optional_header().DataDirectories[pe::kDirImport];
  if (import_dir.VirtualAddress != 0) {
    for (const auto& dll :
         pe::parse_import_directory(mapped, import_dir.VirtualAddress)) {
      const LoadedModule* provider = find(dll.dll_name);
      if (provider == nullptr) {
        throw NotFoundError("unresolved import DLL '" + dll.dll_name +
                            "' while loading " + module_name);
      }
      for (std::size_t f = 0; f < dll.function_names.size(); ++f) {
        const auto it = provider->exports.find(dll.function_names[f]);
        if (it == provider->exports.end()) {
          throw NotFoundError("unresolved import " + dll.dll_name + "!" +
                              dll.function_names[f]);
        }
        store_le32(mapped, dll.iat_rvas[f], it->second);
      }
    }
  }

  // 5. Copy the relocated, bound image into guest memory.
  kernel_->address_space().write_virtual(base, mapped);

  // 6. Record exports (as absolute VAs) for later loads.
  LoadedModule record;
  record.name = module_name;
  record.base = base;
  record.size_of_image = size_of_image;
  record.entry_point = base + parsed.optional_header().AddressOfEntryPoint;
  const auto& export_dir =
      parsed.optional_header().DataDirectories[pe::kDirExport];
  if (export_dir.VirtualAddress != 0) {
    for (const auto& sym :
         pe::parse_export_directory(mapped, export_dir.VirtualAddress)) {
      record.exports[sym.name] = base + sym.rva;
    }
  }

  // 7. Link into PsLoadedModuleList.
  kernel_->insert_module_entry(module_name, base, record.entry_point,
                               size_of_image);

  log_debug("loaded %s at %08x (%u bytes, %zu exports)", module_name.c_str(),
            base, size_of_image, record.exports.size());
  loaded_.push_back(std::move(record));
  return loaded_.back();
}

void ModuleLoader::unload(const std::string& module_name) {
  if (!kernel_->unlink_module_entry(module_name)) {
    throw NotFoundError("unload: module not in loader list: " + module_name);
  }
  for (auto it = loaded_.begin(); it != loaded_.end(); ++it) {
    if (module_name_equals(it->name, module_name)) {
      loaded_.erase(it);
      return;
    }
  }
}

const LoadedModule* ModuleLoader::find(const std::string& module_name) const {
  for (const auto& m : loaded_) {
    if (module_name_equals(m.name, module_name)) {
      return &m;
    }
  }
  return nullptr;
}

}  // namespace mc::guestos
