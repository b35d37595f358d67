#include "workload/heavyload.hpp"

#include "util/error.hpp"

namespace mc::workload {

void HeavyLoad::stress_guests(std::size_t guest_count, double level) {
  const auto& guests = env_->guests();
  MC_CHECK(guest_count <= guests.size(), "stressing more guests than exist");
  for (std::size_t i = 0; i < guests.size(); ++i) {
    env_->hypervisor().set_load_level(guests[i],
                                      i < guest_count ? level : 0.0);
  }
}

void HeavyLoad::stop_all() { stress_guests(0, 0.0); }

double HeavyLoad::total_load() const {
  return env_->hypervisor().total_busy_load();
}

}  // namespace mc::workload
