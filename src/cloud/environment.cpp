#include "cloud/environment.hpp"

#include "util/error.hpp"
#include "util/log.hpp"

namespace mc::cloud {

CloudEnvironment::CloudEnvironment(CloudConfig config)
    : config_(std::move(config)),
      hypervisor_(config_.hardware),
      golden_(config_.catalog) {
  guests_.reserve(config_.guest_count);
  for (std::size_t i = 0; i < config_.guest_count; ++i) {
    const std::string name = "Dom" + std::to_string(i + 1);
    const vmm::DomainId id =
        hypervisor_.create_domain(name, config_.guest_memory);
    guests_.push_back(id);

    guestos::GuestConfig gc;
    gc.seed = config_.base_seed * 1000003ull + i;
    const auto profile_it = config_.guest_profiles.find(i);
    if (profile_it != config_.guest_profiles.end()) {
      gc.profile = profile_it->second;
    }

    GuestRuntime rt;
    rt.kernel = std::make_unique<guestos::GuestKernel>(hypervisor_.domain(id),
                                                       gc);
    rt.loader = std::make_unique<guestos::ModuleLoader>(*rt.kernel);
    auto& disk = disks_[id];
    for (const auto& module_name : config_.load_order) {
      disk.emplace(module_name, golden_.file(module_name));
      rt.loader->load(module_name, golden_.file(module_name));
    }
    runtimes_.emplace(id, std::move(rt));
  }
  log_info("cloud environment up: %zu guests, %zu modules each",
           guests_.size(), config_.load_order.size());
}

guestos::GuestKernel& CloudEnvironment::kernel(vmm::DomainId id) {
  const auto it = runtimes_.find(id);
  if (it == runtimes_.end()) {
    throw NotFoundError("no guest runtime for domain " + std::to_string(id));
  }
  return *it->second.kernel;
}

const guestos::GuestKernel& CloudEnvironment::kernel(vmm::DomainId id) const {
  const auto it = runtimes_.find(id);
  if (it == runtimes_.end()) {
    throw NotFoundError("no guest runtime for domain " + std::to_string(id));
  }
  return *it->second.kernel;
}

guestos::ModuleLoader& CloudEnvironment::loader(vmm::DomainId id) {
  const auto it = runtimes_.find(id);
  if (it == runtimes_.end()) {
    throw NotFoundError("no guest runtime for domain " + std::to_string(id));
  }
  return *it->second.loader;
}

const guestos::ModuleLoader& CloudEnvironment::loader(vmm::DomainId id) const {
  const auto it = runtimes_.find(id);
  if (it == runtimes_.end()) {
    throw NotFoundError("no guest runtime for domain " + std::to_string(id));
  }
  return *it->second.loader;
}

void CloudEnvironment::snapshot_all() {
  snapshots_.clear();
  for (const vmm::DomainId id : guests_) {
    snapshots_.emplace(id, hypervisor_.snapshot(id));
  }
  disk_snapshots_ = disks_;
}

void CloudEnvironment::revert(vmm::DomainId id) {
  const auto it = snapshots_.find(id);
  if (it == snapshots_.end()) {
    throw NotFoundError("no clean snapshot for domain " + std::to_string(id));
  }
  hypervisor_.restore(it->second);
  const auto disk_it = disk_snapshots_.find(id);
  if (disk_it != disk_snapshots_.end()) {
    disks_[id] = disk_it->second;
  }
}

const Bytes& CloudEnvironment::disk_file(vmm::DomainId id,
                                         const std::string& name) const {
  const auto vm_it = disks_.find(id);
  if (vm_it == disks_.end()) {
    throw NotFoundError("no disk for domain " + std::to_string(id));
  }
  const auto it = vm_it->second.find(name);
  if (it == vm_it->second.end()) {
    throw NotFoundError("file not on Dom" + std::to_string(id) +
                        " disk: " + name);
  }
  return it->second;
}

bool CloudEnvironment::disk_has(vmm::DomainId id,
                                const std::string& name) const {
  const auto vm_it = disks_.find(id);
  return vm_it != disks_.end() && vm_it->second.count(name) != 0;
}

void CloudEnvironment::write_disk_file(vmm::DomainId id,
                                       const std::string& name, Bytes data) {
  disks_[id][name] = std::move(data);
}

void CloudEnvironment::set_busy_guests(std::size_t count) {
  MC_CHECK(count <= guests_.size(), "more busy guests than guests");
  for (std::size_t i = 0; i < guests_.size(); ++i) {
    hypervisor_.set_load_level(guests_[i], i < count ? 1.0 : 0.0);
  }
}

}  // namespace mc::cloud
