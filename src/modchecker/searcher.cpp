#include "modchecker/searcher.hpp"

#include <algorithm>
#include <utility>

#include "guestos/winlike.hpp"
#include "util/error.hpp"

namespace mc::core {

namespace gw = mc::guestos;

namespace {

/// Legacy-wrapper escape hatch: re-raises a searcher fault with the
/// exception type historical callers expect.  An unrecognized build keeps
/// throwing NotFoundError (the old profile_by_version behaviour); every
/// guest fault becomes GuestFaultError.
[[noreturn]] void throw_searcher_fault(FaultRecord record) {
  if (record.code == FaultCode::kUnrecognizedBuild) {
    throw NotFoundError(record.detail);
  }
  throw GuestFaultError(std::move(record));
}

/// Reads a list entry's module name per the profile's convention:
/// UNICODE_STRING descriptor (Windows builds) or inline NUL-padded char
/// array (Linux builds).
Fallible<std::string> try_read_entry_name(vmi::VmiSession& session,
                                          const gw::GuestProfile& profile,
                                          std::uint32_t entry_va) {
  const std::uint32_t name_va = entry_va + profile.off_base_dll_name;
  if (!profile.inline_names) {
    return session.try_read_unicode_string(name_va);
  }
  Fallible<Bytes> raw =
      session.try_read_region(name_va, profile.inline_name_bytes);
  if (!raw.ok()) {
    return std::move(raw.fault());
  }
  const Bytes& bytes = raw.value();
  const auto nul = std::find(bytes.begin(), bytes.end(), std::uint8_t{0});
  return std::string(bytes.begin(), nul);
}

}  // namespace

Fallible<const gw::GuestProfile*> ModuleSearcher::try_profile() {
  // Profile-driven traversal: the guest build (from the debug block)
  // determines the LDR_DATA_TABLE_ENTRY member offsets.
  Fallible<std::uint32_t> version = session_->try_guest_version();
  if (!version.ok()) {
    return std::move(version.fault());
  }
  const gw::GuestProfile* profile =
      gw::find_profile_by_version(version.value());
  if (profile == nullptr) {
    FaultRecord record;
    record.code = FaultCode::kUnrecognizedBuild;
    record.domain = session_->domain_id();
    record.stage = CheckStage::kAcquire;
    record.detail = "no guest profile for version id " +
                    std::to_string(version.value());
    return record;
  }
  return profile;
}

Fallible<std::vector<ModuleInfo>> ModuleSearcher::try_list_modules() {
  Fallible<const gw::GuestProfile*> looked_up = try_profile();
  if (!looked_up.ok()) {
    return std::move(looked_up.fault());
  }
  const gw::GuestProfile& profile = *looked_up.value();
  std::vector<ModuleInfo> modules;
  // try_guest_version succeeded, so the debug block is resolved and the
  // symbol lookup below cannot fault.
  const std::uint32_t head = session_->symbol_to_va("PsLoadedModuleList");
  Fallible<std::uint32_t> link = session_->try_read_u32(head + gw::kOffListFlink);
  if (!link.ok()) {
    return std::move(link.fault());
  }
  std::uint32_t cur = link.value();
  while (cur != head) {
    ModuleInfo info;
    Fallible<std::uint32_t> base =
        session_->try_read_u32(cur + profile.off_dll_base);
    if (!base.ok()) {
      return std::move(base.fault());
    }
    info.base = base.value();
    Fallible<std::uint32_t> entry =
        session_->try_read_u32(cur + profile.off_entry_point);
    if (!entry.ok()) {
      return std::move(entry.fault());
    }
    info.entry_point = entry.value();
    Fallible<std::uint32_t> size =
        session_->try_read_u32(cur + profile.off_size_of_image);
    if (!size.ok()) {
      return std::move(size.fault());
    }
    info.size_of_image = size.value();
    Fallible<std::string> name = try_read_entry_name(*session_, profile, cur);
    if (!name.ok()) {
      return std::move(name.fault());
    }
    info.name = std::move(name.value());
    modules.push_back(std::move(info));
    link = session_->try_read_u32(cur + profile.off_in_load_order_links +
                                  gw::kOffListFlink);
    if (!link.ok()) {
      return std::move(link.fault());
    }
    cur = link.value();
    MC_CHECK(modules.size() < 4096, "loader list cycle suspected");
  }
  return modules;
}

Fallible<std::optional<ModuleInfo>> ModuleSearcher::try_find_module(
    const std::string& module_name) {
  // Same traversal, but stop at the first match (the paper's searcher looks
  // for one module by name).
  Fallible<const gw::GuestProfile*> looked_up = try_profile();
  if (!looked_up.ok()) {
    return std::move(looked_up.fault());
  }
  const gw::GuestProfile& profile = *looked_up.value();
  const std::uint32_t head = session_->symbol_to_va("PsLoadedModuleList");
  Fallible<std::uint32_t> link = session_->try_read_u32(head + gw::kOffListFlink);
  if (!link.ok()) {
    return std::move(link.fault());
  }
  std::uint32_t cur = link.value();
  std::size_t visited = 0;
  while (cur != head) {
    Fallible<std::string> name = try_read_entry_name(*session_, profile, cur);
    if (!name.ok()) {
      return std::move(name.fault());
    }
    if (gw::module_name_equals(name.value(), module_name)) {
      ModuleInfo info;
      info.name = std::move(name.value());
      Fallible<std::uint32_t> base =
          session_->try_read_u32(cur + profile.off_dll_base);
      if (!base.ok()) {
        return std::move(base.fault());
      }
      info.base = base.value();
      Fallible<std::uint32_t> entry =
          session_->try_read_u32(cur + profile.off_entry_point);
      if (!entry.ok()) {
        return std::move(entry.fault());
      }
      info.entry_point = entry.value();
      Fallible<std::uint32_t> size =
          session_->try_read_u32(cur + profile.off_size_of_image);
      if (!size.ok()) {
        return std::move(size.fault());
      }
      info.size_of_image = size.value();
      return std::optional<ModuleInfo>(std::move(info));
    }
    link = session_->try_read_u32(cur + profile.off_in_load_order_links +
                                  gw::kOffListFlink);
    if (!link.ok()) {
      return std::move(link.fault());
    }
    cur = link.value();
    MC_CHECK(++visited < 4096, "loader list cycle suspected");
  }
  return std::optional<ModuleInfo>(std::nullopt);
}

Fallible<std::optional<ModuleImage>> ModuleSearcher::try_extract_module(
    const std::string& module_name, ExtractMode mode) {
  Fallible<std::optional<ModuleInfo>> found = try_find_module(module_name);
  if (!found.ok()) {
    return std::move(found.fault());
  }
  if (!found.value()) {
    return std::optional<ModuleImage>(std::nullopt);
  }
  Fallible<ModuleImage> image = try_extract(*found.value(), mode);
  if (!image.ok()) {
    return std::move(image.fault());
  }
  return std::optional<ModuleImage>(std::move(image.value()));
}

Fallible<ModuleImage> ModuleSearcher::try_extract(const ModuleInfo& info,
                                                  ExtractMode mode) {
  ModuleImage image;
  image.domain = session_->domain_id();
  image.name = info.name;
  image.base = info.base;
  if (mode == ExtractMode::kView) {
    Fallible<vmi::GuestView> view =
        session_->try_read_view(info.base, info.size_of_image);
    if (!view.ok()) {
      return std::move(view.fault());
    }
    image.view = std::move(view.value());
  } else {
    Fallible<Bytes> bytes =
        session_->try_read_region(info.base, info.size_of_image);
    if (!bytes.ok()) {
      return std::move(bytes.fault());
    }
    image.bytes = std::move(bytes.value());
  }
  return image;
}

// ---- Legacy throwing wrappers ----------------------------------------------

std::vector<ModuleInfo> ModuleSearcher::list_modules() {
  Fallible<std::vector<ModuleInfo>> modules = try_list_modules();
  if (!modules.ok()) {
    throw_searcher_fault(std::move(modules.fault()));
  }
  return std::move(modules.value());
}

std::optional<ModuleInfo> ModuleSearcher::find_module(
    const std::string& module_name) {
  Fallible<std::optional<ModuleInfo>> found = try_find_module(module_name);
  if (!found.ok()) {
    throw_searcher_fault(std::move(found.fault()));
  }
  return std::move(found.value());
}

std::optional<ModuleImage> ModuleSearcher::extract_module(
    const std::string& module_name) {
  Fallible<std::optional<ModuleImage>> image =
      try_extract_module(module_name);
  if (!image.ok()) {
    throw_searcher_fault(std::move(image.fault()));
  }
  return std::move(image.value());
}

}  // namespace mc::core
