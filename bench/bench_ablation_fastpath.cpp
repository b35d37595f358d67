// A8 — canonical-RVA fast-path ablation.
//
// The paper's pool scan compares every unordered VM pair, re-running
// Algorithm 2 and re-hashing both copies per pair: O(t^2) image work.  The
// fast path normalizes each copy once against a single reference and
// decides pairs by digest-vector comparison — O(t) image work with a
// per-pair cost of one fixed digest compare.  This bench sweeps the pool
// size, checks verdict equivalence at every point, and emits a
// machine-readable BENCH_modchecker.json consumed by CI.
//
// Two infected t=15 rows (a .text patch on the first VM, PE and ELF) show
// the exact fallback's cost; their verdicts must match too.
//
// Exit status: non-zero if the checker-phase speedup at t=15 falls below
// 5x or any verdict diverges, so the bench doubles as a regression gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "attacks/byte_patch.hpp"
#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "elf/parser.hpp"
#include "guestos/kernel.hpp"
#include "guestos/ko_loader.hpp"
#include "modchecker/canonical.hpp"
#include "modchecker/checker.hpp"
#include "modchecker/item_content.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/rva_adjust.hpp"
#include "modchecker/searcher.hpp"
#include "pe/parser.hpp"
#include "telemetry/registry.hpp"
#include "util/arena.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"
#include "vmi/session.hpp"

namespace {

using namespace mc;

constexpr const char* kModule = "http.sys";     // largest PE catalog module
constexpr const char* kElfModule = "scsi_mod";  // largest .ko in the catalog
constexpr double kRequiredSpeedupAt15 = 5.0;
/// The word-wise normalize diff kernel must beat a byte loop by at least
/// this factor on the 1 MiB mostly-equal probe (the clean-scan shape).
constexpr double kRequiredNormalizeSpeedup = 2.0;

core::ModCheckerConfig faithful_config() {
  core::ModCheckerConfig cfg;
  cfg.paper_faithful = true;
  return cfg;
}

struct Row {
  std::size_t pool_size = 0;
  core::PoolScanReport faithful;
  core::PoolScanReport fast;
  bool verdicts_match = false;
};

double checker_speedup(const Row& r) {
  return static_cast<double>(r.faithful.cpu_times.checker) /
         static_cast<double>(r.fast.cpu_times.checker);
}

double total_speedup(const Row& r) {
  return static_cast<double>(r.faithful.cpu_times.total()) /
         static_cast<double>(r.fast.cpu_times.total());
}

/// One sweep point: faithful vs fast scan of `module` over the same pool.
Row sweep_point(const vmm::Hypervisor& hypervisor,
                const std::vector<vmm::DomainId>& pool,
                const char* module) {
  Row row;
  row.pool_size = pool.size();
  row.faithful =
      core::ModChecker(hypervisor, faithful_config()).scan_pool(module, pool);
  row.fast = core::ModChecker(hypervisor).scan_pool(module, pool);

  row.verdicts_match =
      row.faithful.verdicts.size() == row.fast.verdicts.size();
  for (std::size_t i = 0; row.verdicts_match && i < pool.size(); ++i) {
    row.verdicts_match =
        row.faithful.verdicts[i].clean == row.fast.verdicts[i].clean &&
        row.faithful.verdicts[i].successes == row.fast.verdicts[i].successes;
  }
  return row;
}

constexpr std::size_t kPoolSizes[] = {2, 3, 5, 8, 10, 12, 15};

std::vector<Row> sweep() {
  std::vector<Row> rows;
  for (const std::size_t t : kPoolSizes) {
    cloud::CloudConfig cfg;
    cfg.guest_count = t;
    cloud::CloudEnvironment env(cfg);
    rows.push_back(sweep_point(env.hypervisor(), env.guests(), kModule));
  }
  return rows;
}

/// The ELF leg: the same ablation over Linux guests and .ko modules — the
/// canonical pool must deliver the same O(t) win under the ELF64 fixup
/// policy (8-byte biased slots) as under PE32's 4-byte relocations.
std::vector<Row> elf_sweep() {
  std::vector<Row> rows;
  for (const std::size_t t : kPoolSizes) {
    cloud::LinuxCloudConfig cfg;
    cfg.guest_count = t;
    cloud::LinuxEnvironment env(cfg);
    rows.push_back(sweep_point(env.hypervisor(), env.guests(), kElfModule));
  }
  return rows;
}

/// The infected legs: t=15 with one .text byte patched on the first VM
/// (offset 3 precedes every relocation slot, so it is a pure code
/// change).  The victim's t-1 pairs take the exact fallback, which the
/// clean sweeps never reach; faithful and fast verdicts must still match.
Row infected_row() {
  cloud::CloudConfig cfg;
  cfg.guest_count = 15;
  cloud::CloudEnvironment env(cfg);
  const pe::ParsedImage image{ByteView(env.golden().file(kModule))};
  const std::uint32_t text = image.find_section(".text")->VirtualAddress;
  attacks::BytePatchAttack(text + 3).apply(env, env.guests()[0], kModule);
  return sweep_point(env.hypervisor(), env.guests(), kModule);
}

Row infected_elf_row() {
  cloud::LinuxCloudConfig cfg;
  cfg.guest_count = 15;
  cloud::LinuxEnvironment env(cfg);
  const vmm::DomainId victim = env.guests()[0];
  const elf::ElfImage image{ByteView(env.golden_file(kElfModule))};
  const std::uint32_t va =
      env.loader(victim).find(kElfModule)->base +
      static_cast<std::uint32_t>(image.find_section(".text")->sh_offset) + 3;
  const Bytes patch = {0xCC};
  env.kernel(victim).address_space().write_virtual(va, ByteView(patch));
  return sweep_point(env.hypervisor(), env.guests(), kElfModule);
}

// ---- hot-path microprobes -----------------------------------------------------
//
// Host (wall-clock) cost of each pipeline stage, normalized per byte of
// module image.  Cycles come from the TSC on x86 and degrade to
// nanoseconds elsewhere; each probe keeps the best of several repetitions
// so a noisy CI neighbor cannot fail the gate.

std::uint64_t read_cycle_counter() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      // Host-time probe by design.  mc-lint: allow(sim-determinism)
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

struct Probe {
  double ns_per_byte = 0;
  double cycles_per_byte = 0;
  std::size_t bytes = 0;
};

template <typename Fn>
Probe probe_stage(std::size_t bytes, Fn&& fn) {
  constexpr int kReps = 7;
  double best_ns = 1e300;
  double best_cycles = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    // The probes measure host wall time on purpose (the sim stream is
    // untouched — the equivalence suites gate that separately).
    const auto t0 = std::chrono::steady_clock::now();  // mc-lint: allow(sim-determinism)
    const std::uint64_t c0 = read_cycle_counter();
    fn();
    const std::uint64_t c1 = read_cycle_counter();
    const auto t1 = std::chrono::steady_clock::now();  // mc-lint: allow(sim-determinism)
    best_ns = std::min(
        best_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
    best_cycles = std::min(best_cycles, static_cast<double>(c1 - c0));
  }
  Probe p;
  p.bytes = bytes;
  p.ns_per_byte = best_ns / static_cast<double>(bytes);
  p.cycles_per_byte = best_cycles / static_cast<double>(bytes);
  return p;
}

struct HotpathReport {
  Probe acquire_view;
  Probe acquire_copy;
  Probe parse;
  Probe normalize;
  Probe compare;
  Probe hash_md5;
  /// One exact-fallback pair of infected http.sys (a patched copy against
  /// a settled peer, the scan's table already holding both forms): decided
  /// through the pool's delta plan, and by the per-item code alone.
  Probe fallback_pair;
  Probe fallback_pair_unplanned;
  double normalize_kernel_speedup = 0;  // byte-loop ns / kernel ns
};

/// hotpath.fallback_pair: a t=3 pool of http.sys with the hostbench's
/// byte patch (.text + 3) on the second VM, whose pairs take the exact
/// fallback.  Times decide() on (patched, settled peer) once the scan's
/// table holds both forms — what every pair after the first costs.
void measure_fallback_pair(HotpathReport& hp) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 3;
  cloud::CloudEnvironment env(cfg);
  const pe::ParsedImage image{ByteView(env.golden().file(kModule))};
  attacks::BytePatchAttack(image.find_section(".text")->VirtualAddress + 3)
      .apply(env, env.guests()[1], kModule);
  SimClock clock;
  telemetry::MetricRegistry reg;
  std::vector<core::ParsedModule> copies;
  std::vector<core::ModuleImage> images;
  std::vector<std::unique_ptr<vmi::VmiSession>> sessions;
  for (const vmm::DomainId vm : env.guests()) {
    sessions.push_back(std::make_unique<vmi::VmiSession>(
        env.hypervisor(), vm, clock, vmi::VmiCostModel{}, &reg));
    auto found =
        core::ModuleSearcher(*sessions.back()).try_extract_module(kModule);
    if (!found.ok() || !found.value()) {
      return;
    }
    images.push_back(std::move(*found.value()));
  }
  const core::ModuleParser parser;
  for (const core::ModuleImage& img : images) {
    copies.push_back(parser.parse(img, clock));
  }
  const std::vector<const core::ParsedModule*> pool = {
      &copies[0], &copies[1], &copies[2]};
  const vmi::HostCostModel costs;
  const core::CanonicalPool canon = core::CanonicalPool::elect(
      pool, clock, crypto::HashAlgorithm::kMd5, costs, &reg);
  if (canon.eligible(copies[1].domain)) {
    return;
  }
  const core::DeltaPlan plan = canon.plan_fallback({&copies[1]});
  const core::IntegrityChecker checker(crypto::HashAlgorithm::kMd5, costs);
  core::DigestTable planned(crypto::HashAlgorithm::kMd5, costs, &reg);
  core::DigestTable unplanned(crypto::HashAlgorithm::kMd5, costs, &reg);
  plan.seed(planned);
  const auto decide = [&](core::DigestTable& forms,
                          const core::DeltaPlan* with) {
    SimClock pair_clock;
    bool match = checker.decide(copies[1], copies[0], pair_clock, forms,
                                nullptr, with);
    benchmark::DoNotOptimize(match);
  };
  decide(planned, &plan);  // the first pair meets (and hashes) the forms
  decide(unplanned, nullptr);
  std::size_t bytes = 0;
  for (const core::IntegrityItem& item : copies[1].items) {
    bytes += item.content_size();
  }
  hp.fallback_pair = probe_stage(bytes, [&] { decide(planned, &plan); });
  hp.fallback_pair_unplanned =
      probe_stage(bytes, [&] { decide(unplanned, nullptr); });
}

/// The reference the speedup gate measures the kernel against: the first
/// differing index of two n-byte buffers, one byte per step.  Kept out of
/// line so the probe times the loop, not a caller-specialized copy.
[[gnu::noinline]] std::size_t byte_loop_mismatch(const std::uint8_t* a,
                                                 const std::uint8_t* b,
                                                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      return i;
    }
  }
  return n;
}

/// Per-stage probes over a real module on real guests, plus the synthetic
/// 1 MiB normalize-kernel A/B that backs the speedup gate.
HotpathReport measure_hotpath() {
  HotpathReport hp;

  cloud::CloudConfig cfg;
  cfg.guest_count = 2;
  cloud::CloudEnvironment env(cfg);
  SimClock clock;
  vmi::VmiSession s0(env.hypervisor(), env.guests()[0], clock);
  vmi::VmiSession s1(env.hypervisor(), env.guests()[1], clock);

  core::ModuleSearcher searcher0(s0);
  core::ModuleSearcher searcher1(s1);
  const auto found0 = searcher0.try_find_module(kModule);
  const auto found1 = searcher1.try_find_module(kModule);
  if (!found0.ok() || !found0.value() || !found1.ok() || !found1.value()) {
    return hp;
  }
  const core::ModuleInfo& info0 = *found0.value();
  const std::size_t image_bytes = info0.size_of_image;

  // Acquire: borrowed view vs owned copy of the whole image.
  hp.acquire_view = probe_stage(image_bytes, [&] {
    auto view = s0.try_read_view(info0.base, image_bytes);
    benchmark::DoNotOptimize(view);
  });
  hp.acquire_copy = probe_stage(image_bytes, [&] {
    auto copy = s0.try_read_region(info0.base, image_bytes);
    benchmark::DoNotOptimize(copy);
  });

  // Parse on the borrowed image (the zero-copy pipeline's shape).
  auto fallible0 = searcher0.try_extract_module(kModule);
  auto fallible1 = searcher1.try_extract_module(kModule);
  if (!fallible0.ok() || !fallible0.value() || !fallible1.ok() ||
      !fallible1.value()) {
    return hp;
  }
  const core::ModuleImage& img0 = *fallible0.value();
  const core::ModuleImage& img1 = *fallible1.value();
  const core::ModuleParser parser;
  hp.parse = probe_stage(image_bytes, [&] {
    SimClock inner_clock;
    auto parsed = parser.parse(img0, inner_clock);
    benchmark::DoNotOptimize(parsed);
  });

  SimClock parse_clock;
  const core::ParsedModule mod0 = parser.parse(img0, parse_clock);
  const core::ParsedModule mod1 = parser.parse(img1, parse_clock);

  // Pick the largest rva-sensitive item pair (the .text sections).
  const core::IntegrityItem* text0 = nullptr;
  const core::IntegrityItem* text1 = nullptr;
  for (std::size_t i = 0; i < mod0.items.size() && i < mod1.items.size();
       ++i) {
    if (mod0.items[i].rva_sensitive &&
        (text0 == nullptr ||
         mod0.items[i].content_size() > text0->content_size())) {
      text0 = &mod0.items[i];
      text1 = &mod1.items[i];
    }
  }
  if (text0 == nullptr) {
    return hp;
  }
  const std::size_t text_bytes = text0->content_size();

  // Normalize (Algorithm 2) on real sections.
  hp.normalize = probe_stage(text_bytes, [&] {
    ArenaScope scope(scratch_arena());
    MutableByteView a = core::arena_content_copy(scratch_arena(), *text0);
    MutableByteView b = core::arena_content_copy(scratch_arena(), *text1);
    auto adj = core::adjust_rvas(a, mod0.base, b, mod1.base);
    benchmark::DoNotOptimize(adj);
  });

  // Compare the borrowed item against a byte-equal owned copy of its
  // content, so the probe reads two buffers end to end; hash the borrowed
  // item.
  const Bytes text0_bytes = text0->content_copy();
  core::IntegrityItem text0_owned = *text0;
  text0_owned.view = vmi::GuestView(ByteView(text0_bytes));
  hp.compare = probe_stage(text_bytes, [&] {
    bool eq = core::item_content_equal(*text0, text0_owned);
    benchmark::DoNotOptimize(eq);
  });
  hp.hash_md5 = probe_stage(text_bytes, [&] {
    auto d = core::hash_item_content(crypto::HashAlgorithm::kMd5, *text0);
    benchmark::DoNotOptimize(d);
  });

  measure_fallback_pair(hp);

  // Speedup gate runs on a synthetic 1 MiB mostly-equal pair: the shape a
  // clean pool scan spends its normalize time on, and large enough that
  // per-call overhead cannot mask the kernel.
  constexpr std::size_t kProbeBytes = 1u << 20;
  Bytes pa(kProbeBytes, 0xA5);
  Bytes pb = pa;
  pb[kProbeBytes - 3] ^= 1;  // one late diff so the scan is honest
  const Probe vec = probe_stage(kProbeBytes, [&] {
    auto j = simd::mismatch(pa.data(), pb.data(), kProbeBytes, 0);
    benchmark::DoNotOptimize(j);
  });
  const Probe loop = probe_stage(kProbeBytes, [&] {
    auto j = byte_loop_mismatch(pa.data(), pb.data(), kProbeBytes);
    benchmark::DoNotOptimize(j);
  });
  hp.normalize_kernel_speedup = loop.ns_per_byte / vec.ns_per_byte;
  return hp;
}

// ---- zero-copy acquire gate ---------------------------------------------------

struct ZeroCopyAudit {
  std::uint64_t materializations = 0;
  std::uint64_t view_bytes = 0;
  std::uint64_t bytes_copied = 0;
  bool clean = false;  // zero owned-image copies on the clean scan
};

/// Clean pool scan against a private registry: the Acquire stage must
/// produce only borrowed views (materializations == 0, view_bytes > 0).
ZeroCopyAudit measure_zero_copy() {
  telemetry::MetricRegistry reg;
  cloud::CloudConfig cfg;
  cfg.guest_count = 8;
  cloud::CloudEnvironment env(cfg);
  core::ModCheckerConfig mc_cfg;
  mc_cfg.metrics = &reg;
  core::ModChecker checker(env.hypervisor(), mc_cfg);
  auto report = checker.scan_pool(kModule, env.guests());
  benchmark::DoNotOptimize(report);

  ZeroCopyAudit zc;
  zc.materializations =
      reg.counter("pipeline.acquire.materializations").value();
  zc.view_bytes = reg.counter("vmi.view_bytes").value();
  zc.bytes_copied = reg.counter("vmi.bytes_copied").value();
  zc.clean = zc.materializations == 0 && zc.view_bytes > 0;
  return zc;
}

void probe_json(JsonWriter& json, const char* name, const Probe& p) {
  json.begin_object(name)
      .field("ns_per_byte", p.ns_per_byte)
      .field("cycles_per_byte", p.cycles_per_byte)
      .field("bytes", p.bytes)
      .end_object();
}

void component_json(JsonWriter& json, const char* name,
                    const core::PoolScanReport& r) {
  json.begin_object(name)
      .field("searcher_ms", to_ms(r.cpu_times.searcher))
      .field("parser_ms", to_ms(r.cpu_times.parser))
      .field("checker_ms", to_ms(r.cpu_times.checker))
      .field("total_cpu_ms", to_ms(r.cpu_times.total()))
      .field("wall_ms", to_ms(r.wall_time))
      .field("fastpath_pairs", r.fastpath_pairs)
      .field("fallback_pairs", r.fallback_pairs)
      .end_object();
}

void rows_json(JsonWriter& json, const char* key,
               const std::vector<Row>& rows) {
  json.begin_array(key);
  for (const Row& r : rows) {
    json.begin_object().field("pool_size", r.pool_size);
    component_json(json, "faithful", r.faithful);
    component_json(json, "fast", r.fast);
    json.field("checker_speedup", checker_speedup(r))
        .field("total_speedup", total_speedup(r))
        .field("verdicts_match", r.verdicts_match)
        .end_object();
  }
  json.end_array();
}

bool write_json(const std::string& path, const std::vector<Row>& rows,
                const std::vector<Row>& elf_rows,
                const std::vector<Row>& infected_rows,
                const vmi::SessionPoolStats& pool_stats,
                double warm_rescan_searcher_ms, const HotpathReport& hp,
                const ZeroCopyAudit& zc, bool pass) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  JsonWriter json;
  json.begin_object()
      .field("bench", "ablation_fastpath")
      .field("module", kModule)
      .field("elf_module", kElfModule)
      .field("required_checker_speedup_at_15", kRequiredSpeedupAt15);
  rows_json(json, "rows", rows);
  rows_json(json, "elf_rows", elf_rows);
  rows_json(json, "infected_rows", infected_rows);
  json.begin_object("session_pool")
      .field("created", pool_stats.created)
      .field("reused", pool_stats.reused)
      .field("invalidated", pool_stats.invalidated)
      .end_object()
      .field("warm_rescan_searcher_ms", warm_rescan_searcher_ms)
      .begin_object("hotpath")
      .begin_object("stages");
  probe_json(json, "acquire_view", hp.acquire_view);
  probe_json(json, "acquire_copy", hp.acquire_copy);
  probe_json(json, "parse", hp.parse);
  probe_json(json, "normalize", hp.normalize);
  probe_json(json, "compare", hp.compare);
  probe_json(json, "hash_md5", hp.hash_md5);
  probe_json(json, "fallback_pair", hp.fallback_pair);
  probe_json(json, "fallback_pair_unplanned", hp.fallback_pair_unplanned);
  json.end_object()
      .field("normalize_kernel_speedup", hp.normalize_kernel_speedup)
      .field("required_normalize_speedup", kRequiredNormalizeSpeedup)
      .end_object()
      .begin_object("zero_copy")
      .field("materializations", zc.materializations)
      .field("view_bytes", zc.view_bytes)
      .field("bytes_copied", zc.bytes_copied)
      .field("clean_scan_zero_materializations", zc.clean)
      .end_object()
      .field("pass", pass)
      .end_object();
  os << json.str() << '\n';
  return true;
}

void print_table(const std::vector<Row>& rows) {
  std::printf("%-6s %14s %14s %9s %9s %8s %9s %8s\n", "pool",
              "faithful[ms]", "fast[ms]", "chk-spdp", "tot-spdp", "fastpairs",
              "fallback", "match");
  for (const Row& r : rows) {
    std::printf("%-6zu %14.3f %14.3f %8.2fx %8.2fx %8zu %9zu %8s\n",
                r.pool_size, to_ms(r.faithful.cpu_times.total()),
                to_ms(r.fast.cpu_times.total()), checker_speedup(r),
                total_speedup(r), r.fast.fastpath_pairs,
                r.fast.fallback_pairs, r.verdicts_match ? "yes" : "NO");
  }
}

/// Runs both format sweeps + a warm-rescan probe; returns the exit code.
int run_ablation(const std::string& json_path) {
  const std::vector<Row> rows = sweep();
  const std::vector<Row> elf_rows = elf_sweep();

  std::printf("=== A8: canonical-RVA fast path (module %s) ===\n", kModule);
  print_table(rows);
  std::printf("\n=== A8/elf: same ablation, Linux pool (module %s) ===\n",
              kElfModule);
  print_table(elf_rows);
  const std::vector<Row> infected_rows = {infected_row(), infected_elf_row()};
  std::printf("\n=== A8/infected: .text patch on the first VM "
              "(%s, then %s) ===\n",
              kModule, kElfModule);
  print_table(infected_rows);

  // Warm-rescan probe: a second scan through the same checker reuses the
  // pooled sessions, eliminating attach + debug-block scan per VM.
  cloud::CloudConfig cfg;
  cfg.guest_count = 15;
  cloud::CloudEnvironment env(cfg);
  core::ModChecker warm(env.hypervisor());
  const auto cold_scan = warm.scan_pool(kModule, env.guests());
  const auto warm_scan = warm.scan_pool(kModule, env.guests());
  std::printf("\nwarm rescan (t=15): searcher %0.3f -> %0.3f ms, "
              "sessions created %llu reused %llu\n",
              to_ms(cold_scan.cpu_times.searcher),
              to_ms(warm_scan.cpu_times.searcher),
              static_cast<unsigned long long>(warm.session_pool_stats().created),
              static_cast<unsigned long long>(warm.session_pool_stats().reused));

  // Hot-path microprobes + zero-copy acquire audit (tentpole gates).
  const HotpathReport hp = measure_hotpath();
  const ZeroCopyAudit zc = measure_zero_copy();

  const auto print_stage = [](const char* name, const Probe& p) {
    std::printf("  %-16s %10.4f %14.4f %10zu\n", name, p.ns_per_byte,
                p.cycles_per_byte, p.bytes);
  };
  std::printf("\nper-stage hot path\n");
  std::printf("  %-16s %10s %14s %10s\n", "stage", "ns/byte", "cycles/byte",
              "bytes");
  print_stage("acquire_view", hp.acquire_view);
  print_stage("acquire_copy", hp.acquire_copy);
  print_stage("parse", hp.parse);
  print_stage("normalize", hp.normalize);
  print_stage("compare", hp.compare);
  print_stage("hash_md5", hp.hash_md5);
  print_stage("fallback_pair", hp.fallback_pair);
  print_stage("fallback_unplanned", hp.fallback_pair_unplanned);
  std::printf("normalize kernel speedup (1 MiB probe): %.2fx "
              "(required >= %.1fx)\n",
              hp.normalize_kernel_speedup, kRequiredNormalizeSpeedup);
  std::printf("zero-copy clean scan: materializations=%llu view_bytes=%llu "
              "bytes_copied=%llu => %s\n",
              static_cast<unsigned long long>(zc.materializations),
              static_cast<unsigned long long>(zc.view_bytes),
              static_cast<unsigned long long>(zc.bytes_copied),
              zc.clean ? "clean" : "NOT CLEAN");

  // The gate applies per format: both t=15 legs must clear the same
  // speedup floor, and every row of either sweep must match verdicts.
  const Row& last = rows.back();
  const Row& elf_last = elf_rows.back();
  bool pass = last.pool_size == 15 &&
              checker_speedup(last) >= kRequiredSpeedupAt15 &&
              elf_last.pool_size == 15 &&
              checker_speedup(elf_last) >= kRequiredSpeedupAt15 &&
              warm_scan.cpu_times.searcher < cold_scan.cpu_times.searcher;
  for (const Row& r : rows) {
    pass = pass && r.verdicts_match;
  }
  for (const Row& r : elf_rows) {
    pass = pass && r.verdicts_match;
  }
  for (const Row& r : infected_rows) {
    pass = pass && r.verdicts_match;
  }
  pass = pass && hp.normalize_kernel_speedup >= kRequiredNormalizeSpeedup;
  pass = pass && zc.clean;
  std::printf("checker speedup at t=15: pe32 %.2fx, elf64 %.2fx "
              "(required >= %.1fx) => %s\n\n",
              checker_speedup(last), checker_speedup(elf_last),
              kRequiredSpeedupAt15, pass ? "PASS" : "FAIL");

  if (!write_json(json_path, rows, elf_rows, infected_rows,
                  warm.session_pool_stats(),
                  to_ms(warm_scan.cpu_times.searcher), hp, zc, pass)) {
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return pass ? 0 : 1;
}

void BM_ScanPoolFaithful(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = static_cast<std::size_t>(state.range(0));
  cloud::CloudEnvironment env(cfg);
  core::ModChecker checker(env.hypervisor(), faithful_config());
  for (auto _ : state) {
    auto report = checker.scan_pool(kModule, env.guests());
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_ScanPoolFaithful)->Arg(5)->Arg(15)->Unit(benchmark::kMillisecond);

void BM_ScanPoolFastpath(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = static_cast<std::size_t>(state.range(0));
  cloud::CloudEnvironment env(cfg);
  core::ModChecker checker(env.hypervisor());
  for (auto _ : state) {
    auto report = checker.scan_pool(kModule, env.guests());
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_ScanPoolFastpath)->Arg(5)->Arg(15)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // First non-flag argument overrides the JSON output path.
  std::string json_path = "BENCH_modchecker.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.empty() && arg[0] != '-') {
      json_path = arg;
      break;
    }
  }
  const int rc = run_ablation(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return rc;
}
