#include "modchecker/searcher.hpp"

#include <algorithm>
#include <utility>

#include "guestos/winlike.hpp"

namespace mc::core {

namespace gw = mc::guestos;

namespace {

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

/// Reads an entry's DllBase, EntryPoint and SizeOfImage, in that order.
MaybeFault try_read_entry_facts(vmi::VmiSession& session,
                                const gw::GuestProfile& profile,
                                std::uint32_t entry_va, ModuleInfo& info) {
  Fallible<std::uint32_t> base =
      session.try_read_u32(entry_va + profile.off_dll_base);
  if (!base.ok()) {
    return std::move(base.fault());
  }
  info.base = base.value();
  Fallible<std::uint32_t> entry =
      session.try_read_u32(entry_va + profile.off_entry_point);
  if (!entry.ok()) {
    return std::move(entry.fault());
  }
  info.entry_point = entry.value();
  Fallible<std::uint32_t> size =
      session.try_read_u32(entry_va + profile.off_size_of_image);
  if (!size.ok()) {
    return std::move(size.fault());
  }
  info.size_of_image = size.value();
  return std::nullopt;
}

/// A walk that has not returned to the list head after this many entries
/// is following a FLINK cycle the guest wrote.
constexpr std::size_t kMaxListEntries = 4096;

/// Walks PsLoadedModuleList by FLINK, calling `visit(entry_va)` on each
/// entry until it returns true.  A FLINK cycle is a kLoaderListCycle
/// fault: the guest rewrote its list, so a retry would walk it again.
template <typename Visit>
MaybeFault walk_loader_list(vmi::VmiSession& session,
                            const gw::GuestProfile& profile, Visit&& visit) {
  Fallible<std::uint32_t> head = session.try_symbol_to_va("PsLoadedModuleList");
  if (!head.ok()) {
    return std::move(head.fault());
  }
  Fallible<std::uint32_t> link =
      session.try_read_u32(head.value() + gw::kOffListFlink);
  for (std::size_t visited = 0; link.ok() && link.value() != head.value();
       ++visited) {
    const std::uint32_t cur = link.value();
    if (visited == kMaxListEntries) {
      FaultRecord record;
      record.code = FaultCode::kLoaderListCycle;
      record.domain = session.domain_id();
      record.va = cur;
      record.stage = CheckStage::kAcquire;
      record.detail = "loader list did not return to its head after " +
                      std::to_string(kMaxListEntries) + " entries";
      return record;
    }
    Fallible<bool> stop = visit(cur);
    if (!stop.ok()) {
      return std::move(stop.fault());
    }
    if (stop.value()) {
      return std::nullopt;
    }
    link = session.try_read_u32(cur + profile.off_in_load_order_links +
                                gw::kOffListFlink);
  }
  if (!link.ok()) {
    return std::move(link.fault());
  }
  return std::nullopt;
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
  MaybeFault fault = walk_loader_list(
      *session_, profile, [&](std::uint32_t cur) -> Fallible<bool> {
        ModuleInfo info;
        if (MaybeFault f =
                try_read_entry_facts(*session_, profile, cur, info)) {
          return std::move(*f);
        }
        Fallible<std::string> name =
            try_read_entry_name(*session_, profile, cur);
        if (!name.ok()) {
          return std::move(name.fault());
        }
        info.name = std::move(name.value());
        modules.push_back(std::move(info));
        return false;
      });
  if (fault) {
    return std::move(*fault);
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
  std::optional<ModuleInfo> found;
  MaybeFault fault = walk_loader_list(
      *session_, profile, [&](std::uint32_t cur) -> Fallible<bool> {
        Fallible<std::string> name =
            try_read_entry_name(*session_, profile, cur);
        if (!name.ok()) {
          return std::move(name.fault());
        }
        if (!gw::module_name_equals(name.value(), module_name)) {
          return false;
        }
        ModuleInfo info;
        info.name = std::move(name.value());
        if (MaybeFault f =
                try_read_entry_facts(*session_, profile, cur, info)) {
          return std::move(*f);
        }
        found = std::move(info);
        return true;
      });
  if (fault) {
    return std::move(*fault);
  }
  return found;
}

LoaderWalk ModuleSearcher::walk_loader() {
  LoaderWalk out;
  Fallible<const gw::GuestProfile*> looked_up = try_profile();
  if (!looked_up.ok()) {
    out.end_fault = std::move(looked_up.fault());
    return out;
  }
  const gw::GuestProfile& profile = *looked_up.value();
  // Name first, as try_find_module reads it: a name fault ends every
  // lookup there; a facts fault only the lookup of that entry's name.
  out.end_fault = walk_loader_list(
      *session_, profile, [&](std::uint32_t cur) -> Fallible<bool> {
        Fallible<std::string> name =
            try_read_entry_name(*session_, profile, cur);
        if (!name.ok()) {
          return std::move(name.fault());
        }
        LoaderWalk::Entry entry;
        entry.info.name = std::move(name.value());
        entry.facts_fault =
            try_read_entry_facts(*session_, profile, cur, entry.info);
        out.entries.push_back(std::move(entry));
        return false;
      });
  return out;
}

Fallible<std::optional<ModuleInfo>> LoaderWalk::find(
    const std::string& module_name) const {
  for (const Entry& entry : entries) {
    if (gw::module_name_equals(entry.info.name, module_name)) {
      if (entry.facts_fault) {
        return *entry.facts_fault;
      }
      return std::optional<ModuleInfo>(entry.info);
    }
  }
  if (end_fault) {
    return *end_fault;
  }
  return std::optional<ModuleInfo>();
}

bool LoaderWalk::clean() const {
  return !end_fault &&
         std::none_of(entries.begin(), entries.end(),
                      [](const Entry& e) { return e.facts_fault.has_value(); });
}

Fallible<std::optional<ModuleImage>> ModuleSearcher::try_extract_module(
    const std::string& module_name) {
  Fallible<std::optional<ModuleInfo>> found = try_find_module(module_name);
  if (!found.ok()) {
    return std::move(found.fault());
  }
  if (!found.value()) {
    return std::optional<ModuleImage>(std::nullopt);
  }
  Fallible<ModuleImage> image = try_extract(*found.value());
  if (!image.ok()) {
    return std::move(image.fault());
  }
  return std::optional<ModuleImage>(std::move(image.value()));
}

Fallible<ModuleImage> ModuleSearcher::try_extract(const ModuleInfo& info) {
  Fallible<vmi::GuestView> view =
      session_->try_read_view(info.base, info.size_of_image);
  if (!view.ok()) {
    return std::move(view.fault());
  }
  return ModuleImage{session_->domain_id(), info.name, info.base,
                     std::move(view.value())};
}

}  // namespace mc::core
