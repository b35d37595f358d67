#include "vmm/domain.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mc::vmm {

Domain::Domain(DomainId id, std::string name, std::uint64_t memory_bytes)
    : id_(id), name_(std::move(name)), memory_(memory_bytes) {}

void Domain::set_cr3(std::uint64_t cr3) {
  if (cr3 != cr3_) {
    cr3_ = cr3;
    memory_.note_cr3_switch();
  }
}

void Domain::set_load_level(double level) {
  MC_CHECK(level >= 0.0 && level <= 1.0, "load level must be in [0, 1]");
  load_level_ = level;
}

void Domain::copy_state_from(const Domain& src) {
  memory_.restore_from(src.memory_);
  cr3_ = src.cr3_;
  load_level_ = src.load_level_;
  ++epoch_;
}

}  // namespace mc::vmm
