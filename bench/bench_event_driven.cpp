// Event-driven sweep throughput — the WriteWatch payoff quantified.
//
// A cadence deployment re-extracts every module image every tick even when
// the guests never wrote the pages (Fig. 7 attributes the cost to exactly
// that page-wise extraction).  The WriteWatch-backed incremental scanner
// re-reads only dirty pages, so its steady-state cost scales with the
// write weather, not the pool size.  This bench sweeps the dirty fraction
// (share of the pool's watched module pages written between ticks) at
// t=15 and reports simulated sweeps/sec for both scanners.
//
// The weather writes are benign touches (each dirtied byte is rewritten
// with its current value): frames go dirty, content stays clean, so both
// scanners must keep returning identical all-clean verdicts while the
// incremental one pays only for re-reading and comparing the touched
// pages — every such refresh finds its bytes unchanged and re-parses
// nothing.
//
// Exit status: non-zero if the event-driven speedup at a 0% or 1% dirty
// fraction falls below 5x or at 10% below 2x, if any verdict diverges,
// if the scanner's own counters show it re-read more than the dirtied
// pages, if any partial refresh of this all-same-value weather found a
// changed byte, or if a tick after the cold one walked a loader list (the
// weather never writes one, so every lookup must be a snapshot hit).  The
// 100% row's speedup is reported without a gate.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "attacks/guest_writer.hpp"
#include "cloud/environment.hpp"
#include "modchecker/incremental.hpp"
#include "modchecker/modchecker.hpp"
#include "util/json.hpp"
#include "vmm/phys_mem.hpp"

namespace {

using namespace mc;

constexpr const char* kModule = "http.sys";  // largest PE catalog module
constexpr std::size_t kPoolSize = 15;        // the paper's t=15 pool
constexpr int kTicks = 10;                   // steady-state ticks per fraction
constexpr double kRequiredSpeedupLowDirty = 5.0;
constexpr double kRequiredSpeedupTenPercent = 2.0;

struct FractionRow {
  double fraction = 0.0;           // share of watched pages dirtied per tick
  std::uint64_t pages_per_tick = 0;
  double incremental_ms = 0.0;     // avg simulated cost per tick
  double fresh_ms = 0.0;
  double speedup = 0.0;
  double sweeps_per_sec = 0.0;     // simulated, event-driven path
  std::uint64_t frames_reread = 0;
  std::uint64_t partial_refreshes = 0;
  std::uint64_t unchanged_refreshes = 0;  // partial, every byte matched
  std::uint64_t cache_reuses = 0;
  std::uint64_t full_extractions = 0;
  std::uint64_t loader_walks = 0;  // after the cold tick
  bool verdicts_match = true;
};

bool same_verdicts(const core::PoolScanReport& a,
                   const core::PoolScanReport& b) {
  if (a.verdicts.size() != b.verdicts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    if (a.verdicts[i].vm != b.verdicts[i].vm ||
        a.verdicts[i].clean != b.verdicts[i].clean) {
      return false;
    }
  }
  return true;
}

/// One pool's module placement: guest bases and the shared image size.
struct ModuleMap {
  std::vector<std::uint32_t> bases;
  std::size_t image_bytes = 0;
  std::size_t pages_per_guest = 0;
};

ModuleMap map_module(cloud::CloudEnvironment& env) {
  ModuleMap map;
  for (const vmm::DomainId vm : env.guests()) {
    attacks::GuestMemoryWriter writer(env, vm);
    std::uint32_t base = 0;
    const Bytes image = writer.read_module_image(kModule, &base);
    map.bases.push_back(base);
    map.image_bytes = image.size();
  }
  map.pages_per_guest =
      (map.image_bytes + vmm::kFrameSize - 1) / vmm::kFrameSize;
  return map;
}

/// Benign write weather: touch `pages` random module pages across the pool
/// (rewrite one byte with its current value — dirty frame, clean content).
void rain(cloud::CloudEnvironment& env, const ModuleMap& map,
          std::uint64_t pages, std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> pick_guest(0,
                                                        map.bases.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_page(
      0, map.pages_per_guest - 1);
  for (std::uint64_t i = 0; i < pages; ++i) {
    const std::size_t g = pick_guest(rng);
    // Stay inside the image even on the partial last page.
    const std::size_t offset =
        std::min(pick_page(rng) * vmm::kFrameSize,
                 map.image_bytes - 1);
    attacks::GuestMemoryWriter writer(env, env.guests()[g]);
    const std::uint32_t va =
        map.bases[g] + static_cast<std::uint32_t>(offset);
    writer.write(va, ByteView(writer.read(va, 1)));
  }
}

FractionRow run_fraction(double fraction) {
  cloud::CloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cloud::CloudEnvironment env(cfg);
  core::IncrementalScanner incremental(env.hypervisor());
  core::ModChecker fresh(env.hypervisor());
  const ModuleMap map = map_module(env);

  FractionRow row;
  row.fraction = fraction;
  const std::uint64_t total_pages =
      static_cast<std::uint64_t>(map.pages_per_guest) * kPoolSize;
  row.pages_per_tick = static_cast<std::uint64_t>(
      std::llround(fraction * static_cast<double>(total_pages)));
  if (fraction > 0.0 && row.pages_per_tick == 0) {
    row.pages_per_tick = 1;  // "1%" must mean some weather even if t is tiny
  }

  // Cold tick warms both scanners' caches; excluded from the averages.
  row.verdicts_match = same_verdicts(incremental.scan(kModule, env.guests()),
                                     fresh.scan_pool(kModule, env.guests()));
  const auto cold = incremental.stats();

  std::mt19937 rng(0xEDB1u + static_cast<unsigned>(fraction * 1000.0));
  SimNanos incremental_total = 0;
  SimNanos fresh_total = 0;
  for (int tick = 0; tick < kTicks; ++tick) {
    rain(env, map, row.pages_per_tick, rng);
    const auto a = incremental.scan(kModule, env.guests());
    const auto b = fresh.scan_pool(kModule, env.guests());
    incremental_total += a.cpu_times.total();
    fresh_total += b.cpu_times.total();
    row.verdicts_match = row.verdicts_match && same_verdicts(a, b);
  }

  const auto& stats = incremental.stats();
  row.frames_reread = stats.frames_reread - cold.frames_reread;
  row.partial_refreshes = stats.partial_refreshes - cold.partial_refreshes;
  row.unchanged_refreshes =
      stats.unchanged_refreshes - cold.unchanged_refreshes;
  row.cache_reuses = stats.cache_reuses - cold.cache_reuses;
  row.full_extractions = stats.full_extractions;
  row.loader_walks = stats.loader_walks - cold.loader_walks;
  row.incremental_ms = to_ms(incremental_total) / kTicks;
  row.fresh_ms = to_ms(fresh_total) / kTicks;
  row.speedup = static_cast<double>(fresh_total) /
                static_cast<double>(incremental_total);
  row.sweeps_per_sec =
      1e9 / (static_cast<double>(incremental_total) / kTicks);
  return row;
}

bool write_json(const std::string& path,
                const std::vector<FractionRow>& rows, bool pass) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  JsonWriter json;
  json.begin_object()
      .field("bench", "event_driven")
      .field("module", kModule)
      .field("pool_size", kPoolSize)
      .field("ticks", kTicks)
      .field("required_speedup_low_dirty", kRequiredSpeedupLowDirty)
      .field("required_speedup_ten_percent", kRequiredSpeedupTenPercent)
      .begin_array("rows");
  for (const FractionRow& r : rows) {
    json.begin_object()
        .field("dirty_fraction", r.fraction)
        .field("pages_per_tick", r.pages_per_tick)
        .field("incremental_ms", r.incremental_ms)
        .field("fresh_ms", r.fresh_ms)
        .field("speedup", r.speedup)
        .field("sweeps_per_sec", r.sweeps_per_sec)
        .field("frames_reread", r.frames_reread)
        .field("partial_refreshes", r.partial_refreshes)
        .field("unchanged_refreshes", r.unchanged_refreshes)
        .field("cache_reuses", r.cache_reuses)
        .field("full_extractions", r.full_extractions)
        .field("loader_walks", r.loader_walks)
        .field("verdicts_match", r.verdicts_match)
        .end_object();
  }
  json.end_array().field("pass", pass).end_object();
  os << json.str() << '\n';
  return true;
}

int run_gate(const std::string& json_path) {
  const double fractions[] = {0.0, 0.01, 0.10, 1.0};
  std::vector<FractionRow> rows;
  for (const double f : fractions) {
    rows.push_back(run_fraction(f));
  }

  std::printf("=== event-driven sweeps (t=%zu, module %s, %d ticks) ===\n",
              kPoolSize, kModule, kTicks);
  std::printf("%-8s %10s %14s %12s %9s %12s %9s %9s %9s %6s\n", "dirty",
              "pages/tick", "incremental[ms]", "fresh[ms]", "speedup",
              "sweeps/sec", "reread", "unchanged", "reuses", "walks");
  for (const FractionRow& r : rows) {
    std::printf(
        "%-7.0f%% %10llu %14.3f %12.3f %8.2fx %12.1f %9llu %9llu %9llu %6llu"
        "%s\n",
        r.fraction * 100.0, static_cast<unsigned long long>(r.pages_per_tick),
        r.incremental_ms, r.fresh_ms, r.speedup, r.sweeps_per_sec,
        static_cast<unsigned long long>(r.frames_reread),
        static_cast<unsigned long long>(r.unchanged_refreshes),
        static_cast<unsigned long long>(r.cache_reuses),
        static_cast<unsigned long long>(r.loader_walks),
        r.verdicts_match ? "" : "  VERDICT MISMATCH!");
  }

  bool pass = true;
  for (const FractionRow& r : rows) {
    pass = pass && r.verdicts_match;
    // The scanner's own counters prove dirty-only re-reads: it never
    // reads back more pages than the weather dirtied, and a dry tick
    // reads back nothing.
    pass = pass && r.frames_reread <= r.pages_per_tick * kTicks;
    // Only the cold tick pays full extractions.
    pass = pass && r.full_extractions == kPoolSize;
    // Same-value weather changes no byte: every partial refresh must find
    // its pages equal and keep the cached parse.
    pass = pass && r.unchanged_refreshes == r.partial_refreshes;
    // Module-page weather leaves every loader list unwritten: after the
    // cold tick each lookup is a snapshot hit, never a walk.
    pass = pass && r.loader_walks == 0;
  }
  pass = pass && rows[0].frames_reread == 0 &&
         rows[0].partial_refreshes == 0 &&
         rows[0].cache_reuses == kPoolSize * kTicks;
  pass = pass && rows[1].partial_refreshes > 0;
  // The headline gate: near-idle pools sweep at least 5x faster.
  pass = pass && rows[0].speedup >= kRequiredSpeedupLowDirty &&
         rows[1].speedup >= kRequiredSpeedupLowDirty;
  pass = pass && rows[2].speedup >= kRequiredSpeedupTenPercent;
  std::printf("speedup at 0%%/1%% dirty: %.2fx / %.2fx (required >= %.1fx), "
              "at 10%%: %.2fx (required >= %.1fx) => %s\n\n",
              rows[0].speedup, rows[1].speedup, kRequiredSpeedupLowDirty,
              rows[2].speedup, kRequiredSpeedupTenPercent,
              pass ? "PASS" : "FAIL");

  if (!write_json(json_path, rows, pass)) {
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return pass ? 0 : 1;
}

void BM_EventDrivenTick(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cloud::CloudEnvironment env(cfg);
  core::IncrementalScanner scanner(env.hypervisor());
  scanner.scan(kModule, env.guests());  // warm the cache
  const ModuleMap map = map_module(env);
  const std::uint64_t total_pages =
      static_cast<std::uint64_t>(map.pages_per_guest) * kPoolSize;
  const std::uint64_t pages = static_cast<std::uint64_t>(std::llround(
      static_cast<double>(state.range(0)) / 100.0 *
      static_cast<double>(total_pages)));
  std::mt19937 rng(0xEDB2u);
  for (auto _ : state) {
    rain(env, map, pages, rng);
    auto report = scanner.scan(kModule, env.guests());
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_EventDrivenTick)
    ->Arg(0)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_FullSweepTick(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cloud::CloudEnvironment env(cfg);
  core::ModChecker checker(env.hypervisor());
  for (auto _ : state) {
    auto report = checker.scan_pool(kModule, env.guests());
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_FullSweepTick)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // First non-flag argument overrides the JSON output path.
  std::string json_path = "BENCH_event_driven.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.empty() && arg[0] != '-') {
      json_path = arg;
      break;
    }
  }
  const int rc = run_gate(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return rc;
}
