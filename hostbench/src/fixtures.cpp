#include "fixtures.hpp"

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "attacks/byte_patch.hpp"
#include "attacks/dkom_hide.hpp"
#include "attacks/eat_hook.hpp"
#include "attacks/guest_writer.hpp"
#include "attacks/header_tamper.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/stub_patch.hpp"
#include "attacks/version_spoof.hpp"
#include "elf/parser.hpp"
#include "modchecker/incremental.hpp"
#include "pe/parser.hpp"

namespace hostbench {

using mc::Bytes;
using mc::ByteView;
using mc::MutableByteView;
using mc::vmm::DomainId;

namespace {

constexpr std::uint32_t kPage = 4096;

/// `count` distinct VMs for the attacks of one pool.  The first is always
/// the pool's first VM, the reference every copy is normalized against,
/// so each infected pool has exactly one module whose every pair takes the
/// exact fallback; the others are seeded draws from the remaining VMs,
/// whose infected modules fall back on that VM's pairs only.  Either way
/// the seed never changes how much fallback work a pool holds.
std::vector<DomainId> attack_vms(const std::vector<DomainId>& guests,
                                 std::size_t count, Rng& rng) {
  std::vector<DomainId> order(guests.begin() + 1, guests.end());
  for (std::size_t i = 0; i + 1 < count && i < order.size(); ++i) {
    std::swap(order[i], order[i + pick(rng, order.size() - i)]);
  }
  order.resize(std::min(count - 1, order.size()));
  order.insert(order.begin(), guests.front());
  return order;
}

std::uint32_t pe_section_rva(const mc::cloud::CloudEnvironment& env,
                             const std::string& module,
                             const std::string& section) {
  const mc::pe::ParsedImage image{ByteView(env.golden().file(module))};
  const mc::pe::SectionHeader* sh = image.find_section(section);
  if (sh == nullptr) {
    throw std::runtime_error(module + " has no " + section);
  }
  return sh->VirtualAddress;
}

std::uint32_t elf_section_va(mc::cloud::LinuxEnvironment& env, DomainId vm,
                             const std::string& module,
                             const std::string& section) {
  const mc::guestos::LoadedKo* ko = env.loader(vm).find(module);
  const mc::elf::ElfImage image{ByteView(env.golden_file(module))};
  const mc::elf::Elf64Shdr* sh = image.find_section(section);
  if (ko == nullptr || sh == nullptr) {
    throw std::runtime_error(module + " has no " + section);
  }
  return ko->base + static_cast<std::uint32_t>(sh->sh_offset);
}

void record(Pool& pool, const std::string& attack, const std::string& module,
            DomainId vm) {
  pool.truth[module].insert(vm);
  pool.infections.push_back({attack, module, vm});
}

void apply_checked(Pool& pool, const mc::attacks::Attack& attack,
                   const std::string& module, DomainId vm) {
  const mc::attacks::AttackResult result = attack.apply(*pool.pe, vm, module);
  if (!result.detectable_by_modchecker) {
    throw std::logic_error(attack.name() + " is not detectable");
  }
  record(pool, attack.name(), module, vm);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ (salt * 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t pick(Rng& rng, std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
}

std::vector<std::uint32_t> Pool::module_pages(DomainId vm) const {
  std::vector<std::uint32_t> pages;
  for (const std::string& module : modules) {
    std::uint32_t base = 0;
    std::uint32_t size = 0;
    if (pe) {
      const auto* rec = pe->loader(vm).find(module);
      base = rec->base;
      size = rec->size_of_image;
    } else {
      const auto* rec = elf->loader(vm).find(module);
      base = rec->base;
      size = rec->size_of_image;
    }
    for (std::uint32_t off = 0; off < size; off += kPage) {
      pages.push_back(base + off);
    }
  }
  return pages;
}

Pool make_pe_pool(std::uint64_t seed, const std::string& label) {
  Pool pool;
  pool.label = label;
  mc::cloud::CloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cfg.base_seed = seed;
  pool.pe = std::make_unique<mc::cloud::CloudEnvironment>(cfg);
  pool.vms = pool.pe->guests();
  pool.modules = pool.pe->config().load_order;
  return pool;
}

Pool make_elf_pool(std::uint64_t seed, const std::string& label) {
  Pool pool;
  pool.label = label;
  mc::cloud::LinuxCloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cfg.base_seed = seed;
  pool.elf = std::make_unique<mc::cloud::LinuxEnvironment>(cfg);
  pool.vms = pool.elf->guests();
  pool.modules = pool.elf->config().load_order;
  return pool;
}

void infect_pe(Pool& pool, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<DomainId> vms = attack_vms(pool.vms, 6, rng);
  // One attack per module; each class goes on a module its technique
  // applies to.  ntoskrnl.exe stays clean.
  apply_checked(pool, mc::attacks::InlineHookAttack{}, "hal.dll", vms[0]);
  apply_checked(pool, mc::attacks::StubPatchAttack{}, "dummy.sys", vms[1]);
  apply_checked(pool, mc::attacks::HeaderTamperAttack{}, "ntfs.sys", vms[2]);
  apply_checked(pool, mc::attacks::VersionSpoofAttack{}, "tcpip.sys", vms[3]);
  // Offset 3 of .text precedes every relocation slot: a pure code change.
  apply_checked(pool,
                mc::attacks::BytePatchAttack(
                    pe_section_rva(*pool.pe, "http.sys", ".text") + 3),
                "http.sys", vms[4]);
  apply_checked(pool, mc::attacks::DkomHideAttack{}, "ndis.sys", vms[5]);
}

void infect_elf(Pool& pool, std::uint64_t seed, ElfAttacks which) {
  Rng rng(seed);
  const std::vector<DomainId> vms = attack_vms(pool.vms, 4, rng);
  mc::cloud::LinuxEnvironment& env = *pool.elf;
  auto write = [&](DomainId vm, std::uint32_t va, const Bytes& bytes) {
    env.kernel(vm).address_space().write_virtual(va, ByteView(bytes));
  };
  // E1 analogue: one .text byte before the first fixup slot.
  write(vms[0], elf_section_va(env, vms[0], "scsi_mod", ".text") + 3, {0xCC});
  record(pool, "elf-text-patch", "scsi_mod", vms[0]);
  // E2 analogue: the first R_X86_64_64 slot of nf_conntrack (.text + 264)
  // redirected by 0x40, so its RVA agrees with no peer's.
  {
    const std::uint32_t va =
        elf_section_va(env, vms[1], "nf_conntrack", ".text") + 264;
    Bytes slot(8, 0);
    env.kernel(vms[1]).address_space().read_virtual(va, MutableByteView(slot));
    mc::store_le64(MutableByteView(slot), 0,
                   mc::load_le64(ByteView(slot), 0) + 0x40);
    write(vms[1], va, slot);
    record(pool, "elf-fixup-redirect", "nf_conntrack", vms[1]);
  }
  // E3 analogue: one addend byte of the resident .rela.text table.
  write(vms[2], elf_section_va(env, vms[2], "ext3", ".rela.text") + 16,
        {0x7F});
  record(pool, "elf-rela-tamper", "ext3", vms[2]);
  if (which == ElfAttacks::kParseable) {
    return;
  }
  // E4 analogue: the ELF magic, which makes the copy unparseable.
  write(vms[3], env.loader(vms[3]).find("e1000")->base, {'X', 'X', 'X', 'X'});
  record(pool, "elf-magic-corrupt", "e1000", vms[3]);
}

const std::vector<MemoryAttack>& memory_attacks() {
  using mc::attacks::Attack;
  static const std::vector<MemoryAttack> kAttacks = {
      {"inline-hook", "hal.dll",
       [](const Pool&) -> std::unique_ptr<Attack> {
         return std::make_unique<mc::attacks::InlineHookAttack>();
       }},
      {"header-tamper", "ntfs.sys",
       [](const Pool&) -> std::unique_ptr<Attack> {
         return std::make_unique<mc::attacks::HeaderTamperAttack>();
       }},
      {"version-spoof", "tcpip.sys",
       [](const Pool&) -> std::unique_ptr<Attack> {
         return std::make_unique<mc::attacks::VersionSpoofAttack>();
       }},
      {"byte-patch", "http.sys",
       [](const Pool& pool) -> std::unique_ptr<Attack> {
         return std::make_unique<mc::attacks::BytePatchAttack>(
             pe_section_rva(*pool.pe, "http.sys", ".text") + 3);
       }},
      {"eat-hook", "hal.dll",
       [](const Pool&) -> std::unique_ptr<Attack> {
         return std::make_unique<mc::attacks::EatHookAttack>();
       }},
  };
  return kAttacks;
}

void apply_memory_attack(Pool& pool, const MemoryAttack& attack, DomainId vm) {
  const mc::attacks::AttackResult result =
      attack.make(pool)->apply(*pool.pe, vm, attack.module);
  if (!result.detectable_by_modchecker || result.infects_disk_file) {
    throw std::logic_error(attack.name + " is not a detectable memory attack");
  }
}

bool unparseable_copy_defect() {
  Pool pool = make_elf_pool(1, "defect-probe");
  infect_elf(pool, 1);
  mc::core::IncrementalScanner scanner(pool.hypervisor());
  try {
    return !verdicts_match(scanner.scan("e1000", pool.vms), pool);
  } catch (const mc::FormatError&) {
    return true;
  }
}

bool verdicts_match(const mc::core::PoolScanReport& report,
                    const std::vector<DomainId>& pool,
                    const std::set<DomainId>& flagged) {
  if (report.verdicts.size() != pool.size()) {
    return false;
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto& v = report.verdicts[i];
    if (v.vm != pool[i] || v.clean == (flagged.count(v.vm) != 0)) {
      return false;
    }
  }
  return true;
}

bool verdicts_match(const mc::core::PoolScanReport& report, const Pool& pool) {
  static const std::set<DomainId> kNone;
  const auto it = pool.truth.find(report.module_name);
  return verdicts_match(report, pool.vms,
                        it == pool.truth.end() ? kNone : it->second);
}

std::vector<PageRef> all_module_pages(const Pool& pool) {
  std::vector<PageRef> pages;
  for (const DomainId vm : pool.vms) {
    for (const std::uint32_t va : pool.module_pages(vm)) {
      pages.push_back({vm, va});
    }
  }
  return pages;
}

void apply_weather(Pool& pool, const std::vector<PageRef>& pages,
                   std::size_t count, Rng& rng, WeatherStats& stats) {
  count = std::min(count, pages.size());
  std::vector<std::size_t> order(pages.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  Bytes buf(kWeatherBytes);
  const std::int64_t batch_ns = stats.write_ns;
  for (std::size_t k = 0; k < count; ++k) {
    std::swap(order[k], order[k + pick(rng, order.size() - k)]);
    const PageRef& page = pages[order[k]];
    const auto offset =
        static_cast<std::uint32_t>(pick(rng, kPage / kWeatherBytes) * kWeatherBytes);
    const std::uint32_t va = page.va + offset;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    if (pool.pe) {
      mc::attacks::GuestMemoryWriter writer(*pool.pe, page.vm);
      buf = writer.read(va, kWeatherBytes);
      t0 = now_ns();
      writer.write(va, ByteView(buf));
      t1 = now_ns();
    } else {
      mc::vmm::AddressSpace& as = pool.address_space(page.vm);
      as.read_virtual(va, MutableByteView(buf));
      t0 = now_ns();
      as.write_virtual(va, ByteView(buf));
      t1 = now_ns();
    }
    stats.write_ns += t1 - t0;
    ++stats.pages;
  }
  if (count > 0) {
    stats.batch_write_us.push_back(static_cast<double>(stats.write_ns - batch_ns) *
                                   1e-3 / static_cast<double>(count));
  }
}

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) {
    return "unknown";
  }
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

unsigned host_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

Phases phases_for(const Options& opts) {
  if (opts.trace) {
    return {opts.seconds / 2.0, opts.seconds / 2.0};
  }
  return {opts.seconds, 0.0};
}

double Phase::scans_per_s() const {
  std::vector<double> rates;
  for (const Window& w : windows) {
    rates.push_back(static_cast<double>(w.scans) / w.wall_s);
  }
  if (rates.size() >= 3) {
    return summarize(rates).p50;
  }
  return wall_s > 0 ? static_cast<double>(scans) / wall_s : 0.0;
}

double Phase::cpu_ms_per_scan() const {
  std::vector<double> costs;
  for (const Window& w : windows) {
    if (w.scans > 0) {
      costs.push_back(w.cpu_s * 1e3 / static_cast<double>(w.scans));
    }
  }
  if (costs.size() >= 3) {
    return summarize(costs).p50;
  }
  return scans > 0 ? cpu_s * 1e3 / static_cast<double>(scans) : 0.0;
}

PhaseMeter::PhaseMeter(Phase& phase, double seconds)
    : phase_(&phase),
      seconds_(seconds),
      start_ns_(now_ns()),
      cpu0_s_(process_cpu_s()) {}

bool PhaseMeter::running() const {
  const double elapsed = static_cast<double>(now_ns() - start_ns_) * 1e-9;
  if (elapsed < seconds_) {
    return true;
  }
  return phase_->op_ms.size() < kMinSamples && elapsed < 3.0 * seconds_;
}

void PhaseMeter::exclude_begin() {
  exclude_ns_ = now_ns();
  exclude_cpu_ = process_cpu_s();
}

void PhaseMeter::exclude_end() {
  excluded_wall_s_ += static_cast<double>(now_ns() - exclude_ns_) * 1e-9;
  excluded_cpu_s_ += process_cpu_s() - exclude_cpu_;
}

double PhaseMeter::measured_wall_s() const {
  return static_cast<double>(now_ns() - start_ns_) * 1e-9 - excluded_wall_s_;
}

double PhaseMeter::measured_cpu_s() const {
  return process_cpu_s() - cpu0_s_ - excluded_cpu_s_;
}

void PhaseMeter::done(double op_ms, std::uint64_t scans) {
  phase_->op_ms.push_back(op_ms);
  phase_->scans += scans;
  const double wall = measured_wall_s();
  if (wall - mark_.wall_s >= kWindowS) {
    const double cpu = measured_cpu_s();
    phase_->windows.push_back(
        {wall - mark_.wall_s, cpu - mark_.cpu_s, phase_->scans - mark_.scans});
    mark_ = {wall, cpu, phase_->scans};
  }
}

void PhaseMeter::finish() {
  phase_->wall_s = measured_wall_s();
  phase_->cpu_s = measured_cpu_s();
  phase_->rss_mb = peak_rss_mb();
}

std::vector<Metric> end_to_end(const Phase& phase, double setup_s) {
  const Summary s = summarize(phase.op_ms);
  return {
      {"op_ms_p50", s.p50, "ms"},
      {"op_ms_p99", s.p99, "ms"},
      {"scans_per_s", phase.scans_per_s(), "1/s"},
      {"cpu_ms_per_scan", phase.cpu_ms_per_scan(), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", phase.rss_mb, "MiB"},
  };
}

void add_infection_lines(RunResult& out, const std::vector<Pool>& pools) {
  out.lines.push_back("ground truth (attacks applied at set-up, never reverted):");
  for (const Pool& pool : pools) {
    for (const Infection& inf : pool.infections) {
      out.lines.push_back("  " + pool.label + ": " + inf.attack + " on " +
                          inf.module + ", VM " + std::to_string(inf.vm));
    }
  }
}

std::string row(const std::string& name, double value, const std::string& unit,
                const std::string& note) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "  %-32s %14.6g %-6s %s", name.c_str(), value,
                unit.c_str(), note.c_str());
  return buf;
}

void add_trace_overhead(RunResult& out, std::map<std::string, double>& layers,
                        const Phase& untraced, const Phase& traced,
                        double setup_s) {
  const std::vector<Metric> off = end_to_end(untraced, setup_s);
  const std::vector<Metric> on = end_to_end(traced, setup_s);
  out.lines.push_back("tracing overhead (traced - untraced, same run):");
  for (std::size_t i = 0; i < off.size(); ++i) {
    const double delta = on[i].value - off[i].value;
    out.lines.push_back(row(off[i].name, delta, off[i].unit,
                            "untraced " + std::to_string(off[i].value) +
                                ", traced " + std::to_string(on[i].value)));
    const std::string key = "trace.overhead." + off[i].name;
    for (const auto& [name, unit] : layer_metric_names()) {
      if (name == key) {
        layers[key] = delta;
      }
    }
  }
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"acquire.ms", "ms"},
      {"acquire.bytes", "B"},
      {"acquire.session_attaches", "count"},
      {"parse.ms", "ms"},
      {"parse.failures", "count"},
      {"normalize.ms", "ms"},
      {"normalize.bytes", "B"},
      {"crypto.md5_ns_per_byte", "ns/B"},
      {"compare.fastpath_pairs", "count"},
      {"compare.fallback_pairs", "count"},
      {"compare.fastpath_ratio", "ratio"},
      {"compare.fallback_ms", "ms"},
      {"vote.us", "us"},
      {"report.json_us", "us"},
      {"report.json_bytes", "B"},
      {"incremental.scan_ms.d0", "ms"},
      {"incremental.scan_ms.d1", "ms"},
      {"incremental.scan_ms.d10", "ms"},
      {"incremental.scan_ms.d100", "ms"},
      {"incremental.frames_reread", "count"},
      {"incremental.partial_refreshes", "count"},
      {"incremental.full_extractions", "count"},
      {"incremental.reuse_ratio", "ratio"},
      {"vmm.write_us", "us"},
      {"vmm.pages_dirtied", "count"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_p99", "ms"},
      {"service.run_ms_p50", "ms"},
      {"service.worker_busy_frac", "ratio"},
      {"service.skipped_clean", "count"},
      {"service.event_runs", "count"},
      {"service.steals", "count"},
      {"service.sink_us", "us"},
      {"trace.overhead.op_ms_p50", "ms"},
      {"trace.overhead.scans_per_s", "1/s"},
      {"trace.overhead.cpu_ms_per_scan", "ms"},
      {"trace.unaccounted_ms", "ms"},
      {"trace.spans", "count"},
  };
  return kNames;
}

std::vector<Metric> fill_layers(const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_metric_names()) {
    const auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& entry : layer_metric_names()) {
      known = known || entry.first == name;
    }
    if (!known) {
      throw std::logic_error("per-layer metric not declared: " + name);
    }
  }
  return out;
}

}  // namespace hostbench
