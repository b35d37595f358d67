#include "cloud/linux.hpp"

#include <algorithm>

#include "elf/builder.hpp"
#include "elf/constants.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace mc::cloud {

namespace {

/// Deterministic filler (recognizable, non-zero) — same idea as the PE
/// golden factory's data sections.
Bytes make_filler(std::uint32_t bytes, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes data(bytes, 0);
  for (std::size_t i = 0; i + 8 <= data.size(); i += 8) {
    const std::uint64_t v = rng.next();
    for (std::size_t k = 0; k < 8; ++k) {
      data[i + k] = static_cast<std::uint8_t>(v >> (8 * k));
    }
  }
  return data;
}

}  // namespace

Bytes build_ko_image(const KoSpec& spec) {
  MC_CHECK(spec.text_bytes >= 64, "ko .text too small");
  Xoshiro256 rng(spec.seed ^ 0xE1F0E1F0E1F0E1F0ull);

  Bytes text = make_filler(spec.text_bytes, spec.seed);
  Bytes rodata = make_filler(spec.rodata_bytes, spec.seed ^ 0xA5A5A5A5ull);
  // Plant the module banner at the front of .rodata like real modinfo.
  const std::string banner = spec.name + " (simulated kernel module)";
  for (std::size_t i = 0; i < banner.size() && i + 1 < rodata.size(); ++i) {
    rodata[i] = static_cast<std::uint8_t>(banner[i]);
  }
  Bytes data = make_filler(spec.data_bytes, spec.seed ^ 0x5A5A5A5Aull);

  // Fixup slots spread evenly through .text on 8-byte boundaries; zeroed
  // in the golden file (the loader writes the full value from S + addend).
  const std::uint32_t slots =
      spec.abs64_fixups + spec.abs32s_fixups + spec.pc32_fixups;
  const std::uint32_t stride =
      std::max<std::uint32_t>(16, spec.text_bytes / (slots + 1)) & ~7u;
  std::vector<std::uint32_t> slot_offsets;
  for (std::uint32_t i = 0; i < slots; ++i) {
    const std::uint32_t off = (i + 1) * stride;
    MC_CHECK(off + 8 <= spec.text_bytes, "too many fixups for .text size");
    slot_offsets.push_back(off);
    for (std::uint32_t k = 0; k < 8; ++k) {
      text[off + k] = 0;
    }
  }

  elf::KoBuilder builder(spec.name);
  builder.add_section(".text", std::move(text),
                      elf::kShfAlloc | elf::kShfExecinstr);
  builder.add_section(".rodata", std::move(rodata), elf::kShfAlloc);
  builder.add_section(".data", std::move(data),
                      elf::kShfAlloc | elf::kShfWrite);
  builder.add_symbol("init_module", ".text", 0);
  builder.add_symbol("mod_rodata", ".rodata", 0);
  if (spec.data_bytes >= 8) {
    builder.add_symbol("mod_state", ".data", 0);
  }

  // R_X86_64_64 slots first, then the truncated 32S slots, then the
  // PC-relative PC32 slots; targets cycle through the module's own
  // symbols with section-local addends.
  static const char* const kTargets[] = {"init_module", "mod_rodata",
                                         "mod_state"};
  const std::size_t target_count = spec.data_bytes >= 8 ? 3 : 2;
  const auto addend_for = [&](const char* symbol) -> std::int64_t {
    const std::uint32_t span = symbol == kTargets[0]   ? spec.text_bytes
                               : symbol == kTargets[1] ? spec.rodata_bytes
                                                       : spec.data_bytes;
    return static_cast<std::int64_t>(rng.below(std::max(span, 8u) - 7));
  };
  const auto type_for = [&](std::uint32_t i) {
    if (i < spec.abs64_fixups) {
      return elf::kRX8664_64;
    }
    if (i < spec.abs64_fixups + spec.abs32s_fixups) {
      return elf::kRX8664_32S;
    }
    return elf::kRX8664_PC32;
  };
  for (std::uint32_t i = 0; i < slots; ++i) {
    const char* symbol = kTargets[i % target_count];
    builder.add_rela(".text", slot_offsets[i], type_for(i), symbol,
                     addend_for(symbol));
  }
  return builder.build();
}

std::vector<KoSpec> default_ko_catalog() {
  // A realistic insmod population: storage + filesystem + netfilter + NIC
  // drivers, plus the "hello" dummy the E3/E4 analogues load.
  return {
      {"scsi_mod", 11, 0x2800, 0x0800, 0x0400, 20, 10},
      {"ext3", 12, 0x2000, 0x0600, 0x0400, 16, 8},
      {"nf_conntrack", 13, 0x1400, 0x0400, 0x0300, 12, 6},
      {"e1000", 14, 0x1000, 0x0400, 0x0200, 10, 5},
      {"hello", 15, 0x0300, 0x0100, 0x0080, 4, 2},
  };
}

std::vector<std::string> default_ko_load_order() {
  std::vector<std::string> order;
  for (const KoSpec& spec : default_ko_catalog()) {
    order.push_back(spec.name);
  }
  return order;
}

LinuxEnvironment::LinuxEnvironment(LinuxCloudConfig config)
    : config_(std::move(config)), hypervisor_(config_.hardware) {
  for (const KoSpec& spec : config_.catalog) {
    golden_.emplace(spec.name, build_ko_image(spec));
  }
  guests_.reserve(config_.guest_count);
  for (std::size_t i = 0; i < config_.guest_count; ++i) {
    const std::string name = "Dom" + std::to_string(i + 1);
    const vmm::DomainId id =
        hypervisor_.create_domain(name, config_.guest_memory);
    guests_.push_back(id);

    guestos::GuestConfig gc;
    gc.seed = config_.base_seed * 1000003ull + i;
    gc.profile = &guestos::linux26_profile();

    GuestRuntime rt;
    rt.kernel =
        std::make_unique<guestos::GuestKernel>(hypervisor_.domain(id), gc);
    rt.loader = std::make_unique<guestos::KoLoader>(*rt.kernel);
    for (const auto& module_name : config_.load_order) {
      rt.loader->load(module_name, golden_file(module_name));
    }
    runtimes_.emplace(id, std::move(rt));
  }
  log_info("linux environment up: %zu guests, %zu modules each",
           guests_.size(), config_.load_order.size());
}

const Bytes& LinuxEnvironment::golden_file(const std::string& name) const {
  const auto it = golden_.find(name);
  if (it == golden_.end()) {
    throw NotFoundError("no golden .ko named " + name);
  }
  return it->second;
}

guestos::GuestKernel& LinuxEnvironment::kernel(vmm::DomainId id) {
  const auto it = runtimes_.find(id);
  if (it == runtimes_.end()) {
    throw NotFoundError("no guest runtime for domain " + std::to_string(id));
  }
  return *it->second.kernel;
}

guestos::KoLoader& LinuxEnvironment::loader(vmm::DomainId id) {
  const auto it = runtimes_.find(id);
  if (it == runtimes_.end()) {
    throw NotFoundError("no guest runtime for domain " + std::to_string(id));
  }
  return *it->second.loader;
}

}  // namespace mc::cloud
