// Event-driven sweeps: the differential gate (watch-driven incremental
// verdicts and report JSON byte-identical to a full ModChecker::scan_pool
// in every state — clean pools at every paper pool size, E1-E4 attacks
// landing between ticks on PE and ELF guests, and fuzzed write-weather),
// plus fleet-service dirty-scheduling: clean cadence ticks are skipped via
// the WriteWatch generation check and re-emit the previous results, an
// attack between ticks un-skips exactly the dirty tick, and event/full
// sweeps over the same pool stay report-identical.  The loader snapshot
// and page-table remap cases hold the cached list lookup and the cached
// translations to the same standard.
//
// Timing fields (wall_ns / cpu_ns) and the fastpath pair counters are
// zeroed before comparing JSON: the incremental scanner deliberately pays
// a different simulated cost (that asymmetry is the whole point) and
// comparisons of cached parses bypass the fastpath counters; everything
// the operator alerts on — verdicts, quorum, module identity — must match
// byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "attacks/byte_patch.hpp"
#include "attacks/guest_writer.hpp"
#include "attacks/dll_import_inject.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/stub_patch.hpp"
#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "elf/parser.hpp"
#include "guestos/kernel.hpp"
#include "guestos/ko_loader.hpp"
#include "guestos/winlike.hpp"
#include "modchecker/incremental.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/pipeline.hpp"
#include "modchecker/report_json.hpp"
#include "service/coordinator.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "util/bytes.hpp"
#include "vmm/address_space.hpp"
#include "vmm/phys_mem.hpp"

namespace {

using namespace mc;
using namespace mc::core;
using mc::service::ShardCoordinator;
using mc::service::RingSink;
using mc::service::SweepReport;
using mc::service::SweepSpec;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

std::unique_ptr<cloud::LinuxEnvironment> make_linux_env(std::size_t guests) {
  cloud::LinuxCloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::LinuxEnvironment>(cfg);
}

/// Serializes a pool scan with the non-semantic fields zeroed: simulated
/// timing differs by design (the incremental path is the cheaper one) and
/// cached comparisons bypass the fastpath/fallback counters.  Everything
/// else — verdicts, quorum, module — must be byte-identical.
std::string normalized_json(PoolScanReport report) {
  report.wall_time = 0;
  report.cpu_times = ComponentTimes{};
  report.fastpath_pairs = 0;
  report.fallback_pairs = 0;
  return to_json(report);
}

/// One differential tick: the event-driven scanner against a fresh full
/// scan, compared as normalized report JSON.
void expect_tick_identical(IncrementalScanner& incremental, ModChecker& fresh,
                           const std::string& module,
                           const std::vector<vmm::DomainId>& pool,
                           const std::string& context) {
  const std::string event = normalized_json(incremental.scan(module, pool));
  const std::string full = normalized_json(fresh.scan_pool(module, pool));
  EXPECT_EQ(event, full) << context;
}

// ---- Differential gate: clean pools -------------------------------------------

class EventDrivenCleanPool : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EventDrivenCleanPool, ReportIdenticalAcrossTicks) {
  auto env = make_env(GetParam());
  IncrementalScanner incremental(env->hypervisor());
  ModChecker fresh(env->hypervisor());
  for (int tick = 0; tick < 3; ++tick) {
    for (const std::string module : {"hal.dll", "ntfs.sys"}) {
      expect_tick_identical(incremental, fresh, module, env->guests(),
                            module + " tick " + std::to_string(tick));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, EventDrivenCleanPool,
                         ::testing::Values(2, 3, 5, 8, 15));

// ---- Differential gate: E1-E4 between ticks (PE) ------------------------------

TEST(EventDrivenDifferential, AttacksBetweenTicksPe) {
  auto env = make_env(6);
  IncrementalScanner incremental(env->hypervisor());
  ModChecker fresh(env->hypervisor());
  const std::string module = "hal.dll";

  // Tick 0: clean baseline (both scanners warm up their state).
  expect_tick_identical(incremental, fresh, module, env->guests(), "tick 0");

  // E1-E4 land between ticks, each on a different victim; after every
  // attack the event-driven report must still match a fresh scan exactly.
  attacks::OpcodeReplaceAttack e1;
  attacks::InlineHookAttack e2;
  attacks::StubPatchAttack e3;
  attacks::DllImportInjectAttack e4;
  attacks::Attack* scenarios[] = {&e1, &e2, &e3, &e4};
  for (std::size_t i = 0; i < 4; ++i) {
    const vmm::DomainId victim = env->guests()[i + 1];
    scenarios[i]->apply(*env, victim, module);
    expect_tick_identical(incremental, fresh, module, env->guests(),
                          "after E" + std::to_string(i + 1));
  }

  // Final quiescent tick, served from the cache — which must not launder
  // a stale clean verdict.  With four differently-infected guests out of
  // six, every pairwise comparison except (0,5) disagrees, so even the two
  // untouched guests fall below the cross-comparison quorum: all six are
  // flagged, exactly as a fresh scanner concludes (checked above).
  const auto report = incremental.scan(module, env->guests());
  for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
    EXPECT_FALSE(report.verdicts[i].clean) << "vm " << report.verdicts[i].vm;
  }
}

// ---- Differential gate: E1-E4 analogues between ticks (ELF) -------------------

/// Guest VA of `section` inside the module's mapped image (the synthetic
/// .ko layout has sh_addr == sh_offset).
std::uint32_t section_va(cloud::LinuxEnvironment& env, vmm::DomainId vm,
                         const std::string& module,
                         const std::string& section) {
  const guestos::LoadedKo* ko = env.loader(vm).find(module);
  EXPECT_NE(ko, nullptr);
  const elf::ElfImage image{ByteView(env.golden_file(module))};
  const elf::Elf64Shdr* sh = image.find_section(section);
  EXPECT_NE(sh, nullptr);
  return ko->base + static_cast<std::uint32_t>(sh->sh_offset);
}

TEST(EventDrivenDifferential, AttacksBetweenTicksElf) {
  auto env = make_linux_env(6);
  IncrementalScanner incremental(env->hypervisor());
  ModChecker fresh(env->hypervisor());
  const std::string module = "scsi_mod";

  expect_tick_identical(incremental, fresh, module, env->guests(), "tick 0");

  // The elf_pool_test E1-E4 analogues, replayed between cadence ticks:
  // .text byte patch, fixup-slot redirection, .rela tampering, header
  // corruption — each on its own victim, each followed by a differential
  // tick.
  const struct {
    const char* section;
    std::uint32_t offset;
  } scenarios[] = {
      {".text", 3},        // E1: pure content change before the first fixup
      {".text", 16},       // E2 analogue: early code byte hooked
      {".rela.text", 8},   // E3 analogue: relocation table tampered
      {".rodata", 2},      // E4 analogue: modinfo banner tampered
  };
  for (std::size_t i = 0; i < 4; ++i) {
    const vmm::DomainId victim = env->guests()[i + 1];
    const std::uint32_t va =
        section_va(*env, victim, module, scenarios[i].section) +
        scenarios[i].offset;
    const Bytes patch = {0xCC};
    env->kernel(victim).address_space().write_virtual(va, ByteView(patch));
    expect_tick_identical(incremental, fresh, module, env->guests(),
                          std::string("after ELF E") + std::to_string(i + 1));
  }
}

TEST(EventDrivenDifferential, CorruptedElfMagicTickMatchesFreshScan) {
  // An unparseable copy is a finding, not an exception: the event-driven
  // tick records it as parse-failed, keeps it out of the canonical pool and
  // counts each of its pairs as a mismatch, exactly as scan_pool does —
  // on the reference VM and on any other, through cached and restored
  // ticks.
  for (const std::size_t victim_index : {0u, 2u}) {
    auto env = make_linux_env(5);
    IncrementalScanner incremental(env->hypervisor());
    ModChecker fresh(env->hypervisor());
    const std::string module = "e1000";
    const std::string where = "victim " + std::to_string(victim_index);
    expect_tick_identical(incremental, fresh, module, env->guests(),
                          where + " tick 0");

    const vmm::DomainId victim = env->guests()[victim_index];
    const guestos::LoadedKo* ko = env->loader(victim).find(module);
    ASSERT_NE(ko, nullptr);
    Bytes magic(4, 0);
    env->kernel(victim).address_space().read_virtual(ko->base,
                                                     MutableByteView(magic));
    const Bytes garbage = {'X', 'X', 'X', 'X'};
    env->kernel(victim).address_space().write_virtual(ko->base,
                                                      ByteView(garbage));
    const PoolScanReport corrupted = incremental.scan(module, env->guests());
    EXPECT_FALSE(corrupted.verdicts[victim_index].clean) << where;
    EXPECT_EQ(normalized_json(corrupted),
              normalized_json(fresh.scan_pool(module, env->guests())))
        << where;
    expect_tick_identical(incremental, fresh, module, env->guests(),
                          where + " cached");

    env->kernel(victim).address_space().write_virtual(ko->base,
                                                      ByteView(magic));
    expect_tick_identical(incremental, fresh, module, env->guests(),
                          where + " restored");
  }
}

// ---- Differential gate: fuzzed write-weather ----------------------------------

TEST(EventDrivenDifferential, FuzzedWriteWeather) {
  // Random single-byte patches rain on random guests between ticks; every
  // tick the event-driven report must match a fresh scan byte for byte.
  // Seeded mt19937 keeps the weather reproducible.
  for (const std::uint32_t seed : {7u, 21u, 1234u}) {
    auto env = make_env(5);
    IncrementalScanner incremental(env->hypervisor());
    ModChecker fresh(env->hypervisor());
    const std::string module = "ntfs.sys";
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::uint32_t> pick_guest(0, 4);
    std::uniform_int_distribution<std::uint32_t> pick_rva(0x400, 0x2800);
    std::uniform_int_distribution<int> pick_mask(0, 255);
    std::uniform_int_distribution<int> coin(0, 99);

    for (int tick = 1; tick <= 12; ++tick) {
      // ~40% of ticks see one patch, ~10% see a burst of three.
      const int weather = coin(rng);
      const int patches = weather < 40 ? 1 : (weather < 50 ? 3 : 0);
      for (int p = 0; p < patches; ++p) {
        attacks::BytePatchAttack(
            pick_rva(rng), static_cast<std::uint8_t>(pick_mask(rng)))
            .apply(*env, env->guests()[pick_guest(rng)], module);
      }
      expect_tick_identical(incremental, fresh, module, env->guests(),
                            "seed " + std::to_string(seed) + " tick " +
                                std::to_string(tick));
    }
  }
}

// ---- Parallel fetches over the scan cache -------------------------------------

TEST(EventDrivenDifferential, ParallelCachedScanMatchesSequential) {
  // worker_threads > 1 fetches every VM's cached copy on its own worker; the
  // cache map is only touched on the orchestrating thread, so this must be
  // TSan-clean and verdict-identical to the sequential cached scan.
  auto env = make_env(6);
  ModCheckerConfig parallel_config;
  parallel_config.worker_threads = 4;
  IncrementalScanner parallel(env->hypervisor(), parallel_config);
  IncrementalScanner sequential(env->hypervisor());
  attacks::InlineHookAttack hook;
  for (int tick = 0; tick < 4; ++tick) {
    if (tick == 2) {
      hook.apply(*env, env->guests()[3], "hal.dll");
    }
    for (const std::string module : {"hal.dll", "ntfs.sys"}) {
      EXPECT_EQ(normalized_json(parallel.scan(module, env->guests())),
                normalized_json(sequential.scan(module, env->guests())))
          << module << " tick " << tick;
    }
  }
  EXPECT_EQ(parallel.stats().full_extractions,
            sequential.stats().full_extractions);
  EXPECT_EQ(parallel.stats().cache_reuses, sequential.stats().cache_reuses);
  EXPECT_EQ(parallel.stats().partial_refreshes,
            sequential.stats().partial_refreshes);
}

// ---- fleet service dirty scheduling -------------------------------------------

SweepSpec event_spec(std::string name, std::size_t pool,
                     std::vector<std::string> modules, std::size_t repeat,
                     bool event_driven = true) {
  SweepSpec s;
  s.name = std::move(name);
  s.pool_index = pool;
  s.modules = std::move(modules);
  s.repeat = repeat;
  s.cadence = sim_ms(10);
  s.event_driven = event_driven;
  return s;
}

TEST(FleetEventDriven, CleanTicksAreSkippedAndReemitPreviousResults) {
  auto env = make_env(4);
  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  fleet.start();
  fleet.submit(event_spec("nightly", pool, {"hal.dll"}, /*repeat=*/5));
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 5u);
  EXPECT_FALSE(reports[0].skipped_clean);  // first run always scans
  ASSERT_EQ(reports[0].scans.size(), 1u);
  for (std::size_t r = 1; r < reports.size(); ++r) {
    EXPECT_TRUE(reports[r].skipped_clean) << "run " << r;
    // The skipped tick re-emits the previous results verbatim.
    ASSERT_EQ(reports[r].scans.size(), 1u);
    EXPECT_EQ(normalized_json(reports[r].scans[0]),
              normalized_json(reports[0].scans[0]));
    EXPECT_EQ(reports[r].wall_time, 0);  // nothing was scanned
    // And says so on the JSON line.
    EXPECT_NE(to_json(reports[r]).find("\"skipped_clean\":true"),
              std::string::npos);
  }
  EXPECT_EQ(fleet.stats().sweeps_skipped_clean, 4u);
  EXPECT_EQ(fleet.stats().event_runs, 1u);
}

TEST(FleetEventDriven, AttackBetweenTicksUnskipsExactlyTheDirtyTick) {
  auto env = make_env(4);
  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  // A skipped event tick never reaches the module hook (nothing runs), so
  // the "between ticks" writer is a second, full sweep on its own pool:
  // its hook — on the worker, under that pool's mutex, with no other run
  // in flight (single worker) — applies the attack after event run 1 and
  // before event run 2.
  const std::size_t trigger_pool = fleet.add_pool(
      env->hypervisor(), {env->guests()[0], env->guests()[1]});
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  std::atomic<service::SweepId> trigger_id{0};
  std::atomic<bool> attacked{false};
  fleet.set_module_hook(
      [&](service::SweepId id, std::size_t run_index, const std::string&) {
        // With one worker the runs serialize FIFO: e0 t0 e1 t1 e2 ... —
        // attacking in trigger run 1 lands between event ticks 1 and 2.
        if (id == trigger_id.load() && run_index == 1 &&
            !attacked.exchange(true)) {
          attacks::InlineHookAttack{}.apply(*env, env->guests()[1],
                                            "hal.dll");
        }
      });
  // Both sweeps are queued before start(): submitting into a running
  // worker let it run e0 and requeue e1 ahead of t0, which moved the
  // attack one tick late.
  const auto event_id =
      fleet.submit(event_spec("nightly", pool, {"hal.dll"}, /*repeat=*/5));
  trigger_id.store(fleet.submit(event_spec(
      "trigger", trigger_pool, {"http.sys"}, 5, /*event_driven=*/false)));
  ASSERT_NE(event_id, 0u);
  ASSERT_NE(trigger_id.load(), 0u);
  fleet.start();
  fleet.drain();

  const auto all = ring->snapshot();
  std::vector<const SweepReport*> reports(5, nullptr);
  for (const auto& report : all) {
    if (report.id == event_id) {
      reports[report.run_index] = &report;
    }
  }
  for (std::size_t r = 0; r < 5; ++r) {
    ASSERT_NE(reports[r], nullptr) << "run " << r;
  }
  EXPECT_FALSE(reports[0]->skipped_clean);  // first run scans
  EXPECT_TRUE(reports[1]->skipped_clean);   // clean tick skipped
  EXPECT_TRUE(reports[1]->findings.empty());
  EXPECT_FALSE(reports[2]->skipped_clean);  // the attack un-skips this tick
  ASSERT_FALSE(reports[2]->findings.empty());
  EXPECT_EQ(reports[2]->findings[0].vm, env->guests()[1]);
  for (std::size_t r = 3; r < 5; ++r) {
    // Quiescent again — but the re-emitted results still carry the
    // finding: skipping must never launder a detection.
    EXPECT_TRUE(reports[r]->skipped_clean) << "run " << r;
    ASSERT_FALSE(reports[r]->findings.empty()) << "run " << r;
    EXPECT_EQ(reports[r]->findings[0].vm, env->guests()[1]);
  }
  EXPECT_EQ(fleet.stats().event_runs, 2u);
  EXPECT_EQ(fleet.stats().sweeps_skipped_clean, 3u);
}

TEST(FleetEventDriven, EventAndFullSweepsStayReportIdentical) {
  auto env = make_env(5);
  ShardCoordinator fleet({/*workers=*/1});
  // Two pools over the same guests: one swept event-driven, one full —
  // plus a two-VM trigger pool whose full sweep applies the attack from
  // its module hook (event ticks that skip never reach the hook).
  const std::size_t event_pool =
      fleet.add_pool(env->hypervisor(), env->guests());
  const std::size_t full_pool =
      fleet.add_pool(env->hypervisor(), env->guests());
  const std::size_t trigger_pool = fleet.add_pool(
      env->hypervisor(), {env->guests()[0], env->guests()[1]});
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  std::atomic<service::SweepId> trigger_id{0};
  std::atomic<bool> attacked{false};
  fleet.set_module_hook(
      [&](service::SweepId id, std::size_t run_index, const std::string&) {
        // Trigger run 0 executes after event/full run 0 (FIFO, one
        // worker): the attack lands between tick 0 and tick 1.
        if (id == trigger_id.load() && run_index == 0 &&
            !attacked.exchange(true)) {
          attacks::BytePatchAttack(0x1100, 0x01)
              .apply(*env, env->guests()[2], "ntfs.sys");
        }
      });
  // All three sweeps are queued before start() so the single worker sees
  // them in FIFO order (see AttackBetweenTicksUnskipsExactlyTheDirtyTick).
  const auto event_id =
      fleet.submit(event_spec("event", event_pool, {"ntfs.sys"}, 3));
  const auto full_id = fleet.submit(
      event_spec("full", full_pool, {"ntfs.sys"}, 3, /*event_driven=*/false));
  trigger_id.store(fleet.submit(
      event_spec("trigger", trigger_pool, {"http.sys"}, 3,
                 /*event_driven=*/false)));
  ASSERT_NE(event_id, 0u);
  ASSERT_NE(full_id, 0u);
  ASSERT_NE(trigger_id.load(), 0u);
  fleet.start();
  fleet.drain();

  const auto reports = ring->snapshot();
  std::vector<const SweepReport*> event_runs(3), full_runs(3);
  for (const auto& report : reports) {
    if (report.id == event_id) {
      event_runs[report.run_index] = &report;
    } else if (report.id == full_id) {
      full_runs[report.run_index] = &report;
    }
  }
  for (std::size_t r = 0; r < 3; ++r) {
    ASSERT_NE(event_runs[r], nullptr);
    ASSERT_NE(full_runs[r], nullptr);
    ASSERT_EQ(event_runs[r]->scans.size(), 1u);
    ASSERT_EQ(full_runs[r]->scans.size(), 1u);
    // The differential gate: event-driven (scanned or skipped-and-
    // re-emitted) and full-sweep reports agree byte for byte once the
    // timing/fastpath diagnostics are zeroed.
    EXPECT_EQ(normalized_json(event_runs[r]->scans[0]),
              normalized_json(full_runs[r]->scans[0]))
        << "run " << r;
  }
  // Runs 1 and 2 carry the detection on both paths (run 2's event tick is
  // a skip that re-emits it).
  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_FALSE(full_runs[r]->findings.empty());
    ASSERT_FALSE(event_runs[r]->findings.empty());
    EXPECT_EQ(event_runs[r]->findings[0].vm, env->guests()[2]);
  }
  EXPECT_TRUE(event_runs[2]->skipped_clean);
}

TEST(FleetEventDriven, EventScansCarryTelemetryLikeFullScans) {
  // One pipeline per pool serves both sweep kinds, so a pool whose config
  // asks for emit_telemetry gets the registry snapshot on every scan.
  auto env = make_env(3);
  ShardCoordinator fleet({/*workers=*/1});
  ModCheckerConfig config;
  config.emit_telemetry = true;
  const std::size_t pool =
      fleet.add_pool(env->hypervisor(), env->guests(), config);
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  fleet.start();
  fleet.submit(event_spec("event", pool, {"hal.dll"}, /*repeat=*/1));
  fleet.submit(event_spec("full", pool, {"hal.dll"}, /*repeat=*/1,
                          /*event_driven=*/false));
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& report : reports) {
    ASSERT_EQ(report.scans.size(), 1u) << report.name;
    EXPECT_NE(report.scans[0].telemetry_json.find("\"pipeline.pool_scans\""),
              std::string::npos)
        << report.name;
  }
}

TEST(FleetEventDriven, ConcurrentEventSweepsAcrossPoolsAreRaceFree) {
  // Two pools on one hypervisor swept event-driven by two workers while
  // the dirty tracker subscribes/unsubscribes around them: the tsan leg
  // exercises the WriteWatch lock against the fleet's own mutexes.
  auto env = make_env(6);
  const std::vector<vmm::DomainId> front(env->guests().begin(),
                                         env->guests().begin() + 3);
  const std::vector<vmm::DomainId> back(env->guests().begin() + 3,
                                        env->guests().end());
  ShardCoordinator fleet({/*workers=*/2});
  const std::size_t p0 = fleet.add_pool(env->hypervisor(), front);
  const std::size_t p1 = fleet.add_pool(env->hypervisor(), back);
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  fleet.start();
  fleet.submit(event_spec("front", p0, {"hal.dll"}, /*repeat=*/4));
  fleet.submit(event_spec("back", p1, {"hal.dll"}, /*repeat=*/4));
  fleet.drain();

  ASSERT_EQ(ring->snapshot().size(), 8u);
  for (const auto& report : ring->snapshot()) {
    EXPECT_TRUE(report.findings.empty());
    for (const auto& scan : report.scans) {
      for (const auto& verdict : scan.verdicts) {
        EXPECT_TRUE(verdict.clean);
      }
    }
  }
  // Each sweep scanned once and skipped its three clean recurrences.
  EXPECT_EQ(fleet.stats().sweeps_skipped_clean, 6u);
  EXPECT_EQ(fleet.stats().event_runs, 2u);
}

/// Records the live event-state gauge each time a report is emitted.
class EventStateProbe : public mc::service::SweepSink {
 public:
  explicit EventStateProbe(telemetry::MetricRegistry& reg)
      : gauge_(reg.gauge("service.event_states")) {}

  void on_sweep(const SweepReport& /*report*/) override {
    std::lock_guard<std::mutex> lock(mutex_);
    seen_.push_back(gauge_.value());
  }

  std::vector<std::int64_t> seen() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_;
  }

 private:
  telemetry::Gauge gauge_;
  mutable std::mutex mutex_;
  std::vector<std::int64_t> seen_;
};

TEST(FleetEventDriven, EventStateLivesExactlyAsLongAsItsChain) {
  auto env = make_env(3);
  {
    // One-shot event-driven sweeps: each run's state exists while it
    // reports and is gone once its chain ends.
    telemetry::MetricRegistry reg;
    ShardCoordinator fleet({/*workers=*/1, &reg});
    const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
    auto probe = std::make_shared<EventStateProbe>(reg);
    fleet.add_sink(probe);
    constexpr std::size_t kOneShots = 6;
    for (std::size_t i = 0; i < kOneShots; ++i) {
      std::string name = "once-";
      name += std::to_string(i);
      ASSERT_NE(fleet.submit(event_spec(std::move(name), pool, {"hal.dll"},
                                        /*repeat=*/1)),
                0u);
    }
    fleet.start();
    fleet.drain();
    EXPECT_EQ(probe->seen(), std::vector<std::int64_t>(kOneShots, 1));
    EXPECT_EQ(reg.gauge("service.event_states").value(), 0);
  }
  {
    // A live recurring sweep holds exactly one state across its ticks.
    telemetry::MetricRegistry reg;
    ShardCoordinator fleet({/*workers=*/1, &reg});
    const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
    auto probe = std::make_shared<EventStateProbe>(reg);
    fleet.add_sink(probe);
    ASSERT_NE(fleet.submit(event_spec("recurring", pool, {"hal.dll"},
                                      /*repeat=*/4)),
              0u);
    fleet.start();
    fleet.drain();
    EXPECT_EQ(probe->seen(), std::vector<std::int64_t>(4, 1));
    EXPECT_EQ(reg.gauge("service.event_states").value(), 0);
  }
  {
    // Cancelled mid-run, after its last cancellation check: the run
    // completes, its recurrence is refused, and the coordinator drops the
    // state.
    telemetry::MetricRegistry reg;
    ShardCoordinator fleet({/*workers=*/1, &reg});
    const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
    fleet.set_module_hook(
        [&](service::SweepId id, std::size_t /*run_index*/,
            const std::string&) { fleet.cancel(id); });
    ASSERT_NE(fleet.submit(event_spec("cancelled", pool, {"hal.dll"},
                                      /*repeat=*/10)),
              0u);
    fleet.start();
    fleet.drain();
    EXPECT_EQ(fleet.stats().completed_runs, 1u);
    EXPECT_EQ(reg.gauge("service.event_states").value(), 0);
  }
}

TEST(FleetEventDriven, StopMidChainReleasesEventState) {
  // stop() drops a recurring event-driven sweep's queued follow-up; the
  // dropped run was its chain's only live one, so its state must go too.
  auto env = make_env(3);
  telemetry::MetricRegistry reg;
  ShardCoordinator fleet({/*workers=*/1, &reg});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  // The one-shot blocker (due 0) runs after the chain's first tick and
  // before its second (due one cadence later).  It holds the only worker
  // until stop() has emptied the queue, so stop() finds the follow-up
  // pending.
  std::promise<void> blocker_started;
  std::atomic<service::SweepId> blocker{0};
  ShardCoordinator* fleet_ptr = &fleet;
  fleet.set_module_hook([&](service::SweepId id, std::size_t,
                            const std::string&) {
    if (id != blocker.load()) {
      return;
    }
    blocker_started.set_value();
    while (fleet_ptr->pending_sweeps() != 0) {
      std::this_thread::yield();
    }
  });
  ASSERT_NE(fleet.submit(event_spec("chain", pool, {"hal.dll"},
                                    /*repeat=*/5)),
            0u);
  blocker.store(fleet.submit(event_spec("blocker", pool, {"ntfs.sys"},
                                        /*repeat=*/1,
                                        /*event_driven=*/false)));
  ASSERT_NE(blocker.load(), 0u);
  fleet.start();
  blocker_started.get_future().wait();
  EXPECT_EQ(reg.gauge("service.event_states").value(), 1);
  fleet.stop();

  EXPECT_EQ(fleet.stats().dropped_pending, 1u);
  EXPECT_EQ(ring->total_seen(), 2u);  // the chain's first tick + blocker
  EXPECT_EQ(reg.gauge("service.event_states").value(), 0);
}

TEST(FleetEventDriven, DirtierPoolScansFirstAtEqualPriority) {
  // Two identically built environments, so their boot-time write
  // generations match; the extra writes below make one pool strictly
  // dirtier.  Rewriting the byte that is already there advances the watch
  // generations without changing guest state — dirtier, but still clean.
  auto quiet_env = make_env(3);
  auto busy_env = make_env(3);
  for (const vmm::DomainId d : busy_env->guests()) {
    std::array<std::uint8_t, 1> b{};
    busy_env->hypervisor().domain(d).memory().read(0, MutableByteView(b));
    busy_env->hypervisor().domain(d).memory().write(0, ByteView(b));
  }

  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t quiet =
      fleet.add_pool(quiet_env->hypervisor(), quiet_env->guests());
  const std::size_t busy =
      fleet.add_pool(busy_env->hypervisor(), busy_env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);

  // Submitted quiet-first: FIFO alone would scan the quiet pool first.
  // Equal priority and due, so the dirty hint stamped at submission must
  // reorder the queue — detection latency follows the writes.
  const auto quiet_id =
      fleet.submit(event_spec("quiet", quiet, {"hal.dll"}, /*repeat=*/1));
  const auto busy_id =
      fleet.submit(event_spec("busy", busy, {"hal.dll"}, /*repeat=*/1));
  ASSERT_NE(quiet_id, 0u);
  ASSERT_NE(busy_id, 0u);
  fleet.start();
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].id, busy_id);
  EXPECT_EQ(reports[1].id, quiet_id);
  // The same-value rewrites must not have manufactured findings.
  for (const auto& report : reports) {
    EXPECT_TRUE(report.findings.empty());
  }
}

// ---- Content-verified refresh -------------------------------------------------
// A dirty page whose re-read bytes equal the cached copy is no change: the
// copy keeps its generation, parse, canonical entry and pair verdicts.
// Every case checks the cached verdicts against a fresh scan at each step.

/// One pipeline over one ScanCache, with the cache open for inspection.
struct CachedPool {
  explicit CachedPool(const vmm::Hypervisor& hv, ModCheckerConfig config = {})
      : context(hv, std::move(config)), pipeline(context), cache(context) {}

  PoolScanReport scan(const std::string& module,
                      const std::vector<vmm::DomainId>& pool) {
    return pipeline.pool_scan(module, pool, &cache);
  }
  const CachedCopy& copy(const std::string& module, vmm::DomainId vm) {
    return cache.module(module).copies.at(vm);
  }

  CheckContext context;
  CheckPipeline pipeline;
  ScanCache cache;
};

ModCheckerConfig with_metrics(telemetry::MetricRegistry& reg,
                              std::size_t workers = 1) {
  ModCheckerConfig cfg;
  cfg.metrics = &reg;
  cfg.worker_threads = workers;
  return cfg;
}

/// A cached tick checked against a fresh scan of the same guest state.
PoolScanReport checked_tick(CachedPool& cached, ModChecker& fresh,
                            const std::string& module,
                            const std::vector<vmm::DomainId>& pool,
                            const std::string& context) {
  PoolScanReport report = cached.scan(module, pool);
  EXPECT_EQ(normalized_json(report),
            normalized_json(fresh.scan_pool(module, pool)))
      << context;
  return report;
}

/// Rewrites guest [va, va + len) with the bytes already there.
void rewrite_same(vmm::AddressSpace& aspace, std::uint32_t va,
                  std::size_t len) {
  Bytes bytes(len, 0);
  aspace.read_virtual(va, MutableByteView(bytes));
  aspace.write_virtual(va, ByteView(bytes));
}

std::uint32_t module_base(cloud::CloudEnvironment& env, vmm::DomainId vm,
                          const std::string& module, std::size_t* size) {
  attacks::GuestMemoryWriter writer(env, vm);
  std::uint32_t base = 0;
  *size = writer.read_module_image(module, &base).size();
  return base;
}

/// The `content_changed` arg of every acquire span drained from `rec`.
std::vector<std::string> content_changed_args(telemetry::TraceRecorder& rec) {
  std::vector<std::string> values;
  for (const telemetry::SpanRecord& span : rec.drain()) {
    for (const telemetry::SpanArg& arg : span.args) {
      if (span.name == "acquire" && arg.key == "content_changed") {
        values.push_back(arg.value);
      }
    }
  }
  return values;
}

TEST(ContentVerifiedRefresh, ByteChangedThenRestoredReadsUnchanged) {
  auto env = make_env(5);
  telemetry::MetricRegistry reg;
  telemetry::TraceRecorder rec;
  ModCheckerConfig cfg = with_metrics(reg);
  cfg.tracer = &rec;
  CachedPool cached(env->hypervisor(), std::move(cfg));
  ModChecker fresh(env->hypervisor());
  const std::string module = "hal.dll";
  const vmm::DomainId vm = env->guests()[2];
  checked_tick(cached, fresh, module, env->guests(), "warm");
  EXPECT_EQ(content_changed_args(rec), std::vector<std::string>(5, "1"));
  const std::uint64_t generation = cached.copy(module, vm).generation;

  // The flip and its undo both land between two ticks: the page is dirty,
  // its bytes are what the cache already holds.
  attacks::BytePatchAttack(0x1100, 0x5A).apply(*env, vm, module);
  attacks::BytePatchAttack(0x1100, 0x5A).apply(*env, vm, module);
  const PoolScanReport report =
      checked_tick(cached, fresh, module, env->guests(), "restored");
  for (const PoolVmVerdict& v : report.verdicts) {
    EXPECT_TRUE(v.clean) << "vm " << v.vm;
  }
  EXPECT_EQ(cached.copy(module, vm).generation, generation);
  EXPECT_EQ(cached.cache.stats().partial_refreshes, 1u);
  EXPECT_EQ(cached.cache.stats().unchanged_refreshes, 1u);
  EXPECT_EQ(cached.cache.stats().frames_reread, 1u);
  EXPECT_EQ(reg.counter("incremental.unchanged_refreshes").value(), 1u);
  EXPECT_EQ(content_changed_args(rec), std::vector<std::string>(5, "0"));
}

TEST(ContentVerifiedRefresh, RealPatchUnderSameValueWeatherIsFlaggedAndMasked) {
  auto env = make_env(5);
  telemetry::MetricRegistry reg;
  CachedPool cached(env->hypervisor(), with_metrics(reg));
  ModChecker fresh(env->hypervisor());
  const std::string module = "http.sys";
  const vmm::DomainId victim = env->guests()[3];
  const vmm::DomainId bystander = env->guests()[1];
  checked_tick(cached, fresh, module, env->guests(), "warm");
  const CachedCopy& copy = cached.copy(module, victim);
  const auto text = std::find_if(
      copy.parsed.items.begin(), copy.parsed.items.end(),
      [](const IntegrityItem& item) { return item.name == ".text"; });
  ASSERT_NE(text, copy.parsed.items.end());
  const std::uint64_t generation = copy.generation;

  // Same-value weather over the .text page and the page after it, on the
  // victim and on a bystander; then three real bytes on the victim.
  const std::uint32_t rva = text->rva + 0x40;
  auto& victim_as = env->kernel(victim).address_space();
  const std::uint32_t page_va =
      (copy.base + rva) & ~(vmm::kFrameSize - 1);
  rewrite_same(victim_as, page_va,
               2 * vmm::kFrameSize);
  std::size_t size = 0;
  const std::uint32_t bystander_base =
      module_base(*env, bystander, module, &size);
  rewrite_same(env->kernel(bystander).address_space(), bystander_base,
               size);
  Bytes patch(3, 0);
  victim_as.read_virtual(copy.base + rva, MutableByteView(patch));
  for (std::uint8_t& b : patch) {
    b ^= 0xFF;
  }
  victim_as.write_virtual(copy.base + rva, ByteView(patch));

  const PoolScanReport report =
      checked_tick(cached, fresh, module, env->guests(), "patched");
  for (const PoolVmVerdict& v : report.verdicts) {
    EXPECT_EQ(v.clean, v.vm != victim) << "vm " << v.vm;
  }
  const CachedCopy& after = cached.copy(module, victim);
  EXPECT_EQ(after.generation, generation + 1);
  ASSERT_EQ(after.last_changed_rvas.size(), 1u);
  EXPECT_EQ(after.last_changed_rvas[0],
            std::make_pair(rva, rva + 3u));
  EXPECT_EQ(cached.cache.stats().partial_refreshes, 2u);
  EXPECT_EQ(cached.cache.stats().unchanged_refreshes, 1u);  // bystander

  // Undo the patch: the victim reads clean again.
  for (std::uint8_t& b : patch) {
    b ^= 0xFF;
  }
  victim_as.write_virtual(copy.base + rva, ByteView(patch));
  const PoolScanReport undone =
      checked_tick(cached, fresh, module, env->guests(), "undone");
  for (const PoolVmVerdict& v : undone.verdicts) {
    EXPECT_TRUE(v.clean) << "vm " << v.vm;
  }
}

TEST(ContentVerifiedRefresh, SameValueRewriteOfUnparseableCopyStaysAFinding) {
  auto env = make_linux_env(5);
  telemetry::MetricRegistry reg;
  CachedPool cached(env->hypervisor(), with_metrics(reg));
  ModChecker fresh(env->hypervisor());
  const std::string module = "e1000";
  const vmm::DomainId victim = env->guests()[2];
  checked_tick(cached, fresh, module, env->guests(), "warm");

  const guestos::LoadedKo* ko = env->loader(victim).find(module);
  ASSERT_NE(ko, nullptr);
  auto& aspace = env->kernel(victim).address_space();
  const Bytes garbage = {'X', 'X', 'X', 'X'};
  aspace.write_virtual(ko->base, ByteView(garbage));
  PoolScanReport report =
      checked_tick(cached, fresh, module, env->guests(), "corrupted");
  EXPECT_FALSE(report.verdicts[2].clean);
  ASSERT_TRUE(cached.copy(module, victim).parse_failed);

  const telemetry::Histogram parses = reg.histogram("pipeline.parse.sim_ns");
  const std::uint64_t parses_before = parses.count();
  rewrite_same(aspace, ko->base, ko->size_of_image);
  report = checked_tick(cached, fresh, module, env->guests(), "rewritten");
  EXPECT_FALSE(report.verdicts[2].clean);
  EXPECT_TRUE(cached.copy(module, victim).parse_failed);
  EXPECT_EQ(parses.count(), parses_before);
  EXPECT_EQ(cached.cache.stats().unchanged_refreshes, 1u);
}

TEST(ContentVerifiedRefresh, SameValueRewriteOfReferenceKeepsThePool) {
  auto env = make_env(6);
  telemetry::MetricRegistry reg;
  CachedPool cached(env->hypervisor(), with_metrics(reg));
  ModChecker fresh(env->hypervisor());
  const std::string module = "http.sys";
  const PoolScanReport warm =
      checked_tick(cached, fresh, module, env->guests(), "warm");
  const vmm::DomainId ref = cached.cache.module(module).canon.ref_vm;
  const telemetry::Counter hashes = reg.counter("canonical.hashes");
  const telemetry::Counter skips = reg.counter("canonical.hash_skips");
  const std::uint64_t hashes_before = hashes.value();
  const std::uint64_t skips_before = skips.value();

  std::size_t size = 0;
  const std::uint32_t base = module_base(*env, ref, module, &size);
  rewrite_same(env->kernel(ref).address_space(), base,
               size);
  const PoolScanReport report =
      checked_tick(cached, fresh, module, env->guests(), "reference");
  EXPECT_EQ(cached.cache.module(module).canon.ref_vm, ref);
  EXPECT_EQ(hashes.value(), hashes_before);
  EXPECT_EQ(skips.value(), skips_before);
  EXPECT_EQ(normalized_json(report), normalized_json(warm));
  EXPECT_EQ(cached.cache.stats().unchanged_refreshes, 1u);
}

TEST(ContentVerifiedRefresh, RestoreThatMovesFramesReextracts) {
  auto env = make_env(4);
  env->snapshot_all();
  CachedPool cached(env->hypervisor());
  ModChecker fresh(env->hypervisor());
  const std::string module = "hal.dll";
  const vmm::DomainId vm = env->guests()[2];

  // Back one module page with a fresh frame holding the same bytes, so the
  // live guest's frame map differs from the snapshot's.
  std::size_t size = 0;
  const std::uint32_t base = module_base(*env, vm, module, &size);
  ASSERT_GT(size, 2 * std::size_t{vmm::kFrameSize});
  const std::uint32_t page_va =
      (base & ~(vmm::kFrameSize - 1)) + vmm::kFrameSize;
  auto& aspace = env->kernel(vm).address_space();
  vmm::PhysicalMemory& memory = env->hypervisor().domain(vm).memory();
  Bytes page(vmm::kFrameSize, 0);
  aspace.read_virtual(page_va, MutableByteView(page));
  const std::uint64_t moved = std::uint64_t{memory.alloc_frame()}
                              << vmm::kFrameShift;
  memory.write(moved, ByteView(page));
  aspace.map_page(page_va, moved, true);

  checked_tick(cached, fresh, module, env->guests(), "warm");
  EXPECT_EQ(cached.cache.stats().full_extractions, 4u);

  // The restore marks every watched page dirty and maps the page back to
  // its old frame: the patch path sees the moved frame and re-extracts.
  env->revert(vm);
  checked_tick(cached, fresh, module, env->guests(), "reverted");
  EXPECT_EQ(cached.cache.stats().full_extractions, 5u);
  EXPECT_EQ(cached.cache.stats().partial_refreshes, 0u);

  // A second restore keeps the frames: same bytes, so nothing changed.
  const std::uint64_t generation = cached.copy(module, vm).generation;
  env->revert(vm);
  checked_tick(cached, fresh, module, env->guests(), "reverted again");
  EXPECT_EQ(cached.cache.stats().full_extractions, 5u);
  EXPECT_EQ(cached.cache.stats().unchanged_refreshes, 1u);
  EXPECT_EQ(cached.copy(module, vm).generation, generation);
}

TEST(ContentVerifiedRefresh, FaultMidPatchRetriesIntoFullReextract) {
  auto env = make_env(4);
  CachedPool cached(env->hypervisor());
  ModChecker fresh(env->hypervisor());
  const std::string module = "http.sys";
  const vmm::DomainId victim = env->guests()[1];
  checked_tick(cached, fresh, module, env->guests(), "warm");
  std::size_t size = 0;
  const std::uint32_t base = module_base(*env, victim, module, &size);
  auto& aspace = env->kernel(victim).address_space();
  const std::uint32_t page0 = base & ~(vmm::kFrameSize - 1);
  const std::uint32_t page1 = page0 + vmm::kFrameSize;
  auto& injector = env->hypervisor().fault_injector();

  // Count the reads of one refresh that re-reads two pages.  Only the
  // cached scan runs while the injector is armed.  The loader snapshot
  // answers the list lookup, so the two page reads are all of them.
  const auto armed_tick = [&](const vmm::FaultProfile& profile,
                              const std::string& where,
                              std::uint64_t* reads) {
    injector.arm(victim, profile);
    const std::uint64_t before = injector.stats().reads_observed;
    PoolScanReport report = cached.scan(module, env->guests());
    *reads = injector.stats().reads_observed - before;
    injector.disarm(victim);
    PoolScanReport recovered = report;
    recovered.faults.clear();  // the evidence a fault-free scan lacks
    EXPECT_EQ(normalized_json(recovered),
              normalized_json(fresh.scan_pool(module, env->guests())))
        << where;
    return report;
  };
  rewrite_same(aspace, page0 + 0x200, 1);
  rewrite_same(aspace, page1 + 0x200, 1);
  std::uint64_t reads = 0;
  armed_tick(vmm::FaultProfile{}, "counted", &reads);
  ASSERT_EQ(reads, 2u);
  EXPECT_EQ(cached.cache.stats().unchanged_refreshes, 1u);

  // A real change on the first page, then a fault on the second page's
  // read: the half-patched copy is not served, the retry re-extracts it.
  attacks::BytePatchAttack(page0 + 0x200 - base, 0x11)
      .apply(*env, victim, module);
  rewrite_same(aspace, page1 + 0x200, 1);
  vmm::FaultProfile mid_patch;
  mid_patch.fail_read_at = reads;
  std::uint64_t faulted_reads = 0;
  const PoolScanReport report =
      armed_tick(mid_patch, "faulted", &faulted_reads);
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_EQ(report.faults[0].attempt, 1u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(cached.cache.stats().full_extractions, 5u);
  EXPECT_EQ(cached.cache.stats().partial_refreshes, 1u);
  for (const PoolVmVerdict& v : report.verdicts) {
    EXPECT_EQ(v.clean, v.vm != victim) << "vm " << v.vm;
  }
  checked_tick(cached, fresh, module, env->guests(), "after");
}

TEST(ContentVerifiedRefresh, SeededMixMatchesFreshScanAtOneAndFourWorkers) {
  // Same-value writes, real patches and their restores rain on a t=8 pool.
  // A sequential and a 4-worker cache follow the same weather: both match
  // a fresh scan at every tick, and their simulated CPU totals agree.
  auto env = make_env(8);
  telemetry::MetricRegistry seq_reg;
  telemetry::MetricRegistry par_reg;
  CachedPool sequential(env->hypervisor(), with_metrics(seq_reg, 1));
  CachedPool parallel(env->hypervisor(), with_metrics(par_reg, 4));
  ModChecker fresh(env->hypervisor());
  const std::string module = "ntfs.sys";
  const std::vector<vmm::DomainId>& pool = env->guests();
  std::vector<std::uint32_t> bases;
  std::size_t size = 0;
  for (const vmm::DomainId vm : pool) {
    bases.push_back(module_base(*env, vm, module, &size));
  }
  struct Patch {
    vmm::DomainId vm;
    std::uint32_t va;
    std::uint8_t saved;
  };
  std::vector<Patch> live;
  std::mt19937 rng(0xC0DE);
  std::uniform_int_distribution<std::size_t> pick_vm(0, pool.size() - 1);
  std::uniform_int_distribution<std::uint32_t> pick_rva(
      0, static_cast<std::uint32_t>(size - 1));
  std::uniform_int_distribution<int> coin(0, 99);
  std::uniform_int_distribution<int> pick_writes(1, 6);
  std::uniform_int_distribution<std::size_t> pick_len(1, 4000);

  for (int tick = 0; tick < 24; ++tick) {
    const std::string where = "tick " + std::to_string(tick);
    const int weather = coin(rng);
    if (weather < 25 && !live.empty()) {
      const Patch p = live.back();
      live.pop_back();
      const Bytes saved = {p.saved};
      env->kernel(p.vm).address_space().write_virtual(p.va, ByteView(saved));
    } else if (weather < 45) {
      const std::size_t i = pick_vm(rng);
      const std::uint32_t va = bases[i] + pick_rva(rng);
      Bytes b(1, 0);
      auto& aspace = env->kernel(pool[i]).address_space();
      aspace.read_virtual(va, MutableByteView(b));
      live.push_back({pool[i], va, b[0]});
      b[0] ^= 0x80;
      aspace.write_virtual(va, ByteView(b));
    }
    for (int w = pick_writes(rng); w > 0; --w) {
      const std::size_t i = pick_vm(rng);
      const std::uint32_t off = pick_rva(rng);
      rewrite_same(env->kernel(pool[i]).address_space(), bases[i] + off,
                   std::min<std::size_t>(size - off, pick_len(rng)));
    }
    const PoolScanReport a = checked_tick(sequential, fresh, module, pool,
                                          where + " sequential");
    const PoolScanReport b =
        checked_tick(parallel, fresh, module, pool, where + " parallel");
    EXPECT_EQ(a.cpu_times.total(), b.cpu_times.total()) << where;
  }
  const IncrementalStats& s = sequential.cache.stats();
  const IncrementalStats& p = parallel.cache.stats();
  EXPECT_GT(s.unchanged_refreshes, 0u);
  EXPECT_GT(s.partial_refreshes, s.unchanged_refreshes);
  EXPECT_EQ(s.partial_refreshes, p.partial_refreshes);
  EXPECT_EQ(s.unchanged_refreshes, p.unchanged_refreshes);
  EXPECT_EQ(s.full_extractions, p.full_extractions);
  EXPECT_EQ(s.frames_reread, p.frames_reread);
}

// ---- Loader snapshot and page-table remaps ------------------------------------
// A cached tick finds its module through the domain's loader snapshot while
// no frame the last list walk read (nor a page table mapping one) was
// written.  Every list change below must still be seen: each step is
// checked against a fresh scan, at one and at four workers.

/// Backs guest page `page_va` of `vm` with a fresh frame holding the
/// page's bytes after `mutate`; the old frame is never written, only the
/// page-table entry that maps it.
void remap_page(vmm::Hypervisor& hv, vmm::AddressSpace& aspace,
                vmm::DomainId vm, std::uint32_t page_va,
                const std::function<void(Bytes&)>& mutate) {
  Bytes page(vmm::kFrameSize, 0);
  aspace.read_virtual(page_va, MutableByteView(page));
  mutate(page);
  vmm::PhysicalMemory& memory = hv.domain(vm).memory();
  const std::uint64_t fresh = std::uint64_t{memory.alloc_frame()}
                              << vmm::kFrameShift;
  memory.write(fresh, ByteView(page));
  aspace.map_page(page_va, fresh, true);
}

/// `module`'s loader-list entry on `kernel`.
guestos::LdrEntry ldr_entry(const guestos::GuestKernel& kernel,
                            const std::string& module) {
  for (const guestos::LdrEntry& e : kernel.read_module_list()) {
    if (guestos::module_name_equals(e.base_dll_name, module)) {
      return e;
    }
  }
  ADD_FAILURE() << module << " not in the loader list";
  return {};
}

TEST(PageTableRemap, RemappedModulePageIsFlaggedByTheCachedScan) {
  auto env = make_env(4);
  IncrementalScanner incremental(env->hypervisor());
  const std::string module = "hal.dll";
  const vmm::DomainId victim = env->guests()[1];
  const PoolScanReport warm = incremental.scan(module, env->guests());
  for (const PoolVmVerdict& v : warm.verdicts) {
    ASSERT_TRUE(v.clean) << "vm " << v.vm;
  }

  std::size_t size = 0;
  const std::uint32_t base = module_base(*env, victim, module, &size);
  ASSERT_GT(size, 2 * std::size_t{vmm::kFrameSize});
  remap_page(env->hypervisor(), env->kernel(victim).address_space(), victim,
             (base & ~(vmm::kFrameSize - 1)) + vmm::kFrameSize,
             [](Bytes& page) { page[0x80] ^= 0x01; });

  const PoolScanReport report = incremental.scan(module, env->guests());
  ModChecker fresh(env->hypervisor());
  EXPECT_EQ(normalized_json(report),
            normalized_json(fresh.scan_pool(module, env->guests())));
  for (const PoolVmVerdict& v : report.verdicts) {
    EXPECT_EQ(v.clean, v.vm != victim) << "vm " << v.vm;
  }
}

TEST(PageTableRemap, RemappedLoaderEntryPageIsSeen) {
  auto env = make_env(4);
  IncrementalScanner incremental(env->hypervisor());
  ModChecker fresh(env->hypervisor());
  const std::string module = "hal.dll";
  const vmm::DomainId victim = env->guests()[2];
  const std::string warm =
      normalized_json(incremental.scan(module, env->guests()));
  EXPECT_EQ(warm, normalized_json(fresh.scan_pool(module, env->guests())));

  // The entry's page moves to a frame whose copy of the entry names the
  // module "hal.dl": the old frame, which every earlier walk read, keeps
  // the real name.
  guestos::GuestKernel& kernel = env->kernel(victim);
  const guestos::LdrEntry entry = ldr_entry(kernel, module);
  const std::uint32_t length_va = entry.entry_va +
                                  kernel.profile().off_base_dll_name +
                                  guestos::kOffUsLength;
  const std::uint32_t page_va = length_va & ~(vmm::kFrameSize - 1);
  ASSERT_LT(length_va - page_va + 2, vmm::kFrameSize);
  remap_page(env->hypervisor(), kernel.address_space(), victim, page_va,
             [&](Bytes& page) {
               const std::uint32_t at = length_va - page_va;
               store_le16(MutableByteView(page), at,
                          static_cast<std::uint16_t>(
                              load_le16(ByteView(page), at) - 2));
             });

  const std::string event =
      normalized_json(incremental.scan(module, env->guests()));
  EXPECT_NE(event, warm);
  EXPECT_EQ(event, normalized_json(fresh.scan_pool(module, env->guests())));
  EXPECT_EQ(event,
            normalized_json(ModChecker(env->hypervisor())
                                .scan_pool(module, env->guests())));
}

TEST(PageTableRemap, OneCheckerScansBeforeAndAfterTheRemap) {
  // The fresh path keeps its pooled sessions across scans: their cached
  // translations must not outlive the page-table write.
  auto env = make_env(4);
  ModChecker checker(env->hypervisor());
  const std::string module = "hal.dll";
  const vmm::DomainId victim = env->guests()[3];
  for (const PoolVmVerdict& v :
       checker.scan_pool(module, env->guests()).verdicts) {
    ASSERT_TRUE(v.clean) << "vm " << v.vm;
  }
  std::size_t size = 0;
  const std::uint32_t base = module_base(*env, victim, module, &size);
  remap_page(env->hypervisor(), env->kernel(victim).address_space(), victim,
             (base & ~(vmm::kFrameSize - 1)) + vmm::kFrameSize,
             [](Bytes& page) { page[0x80] ^= 0x01; });
  const PoolScanReport report = checker.scan_pool(module, env->guests());
  for (const PoolVmVerdict& v : report.verdicts) {
    EXPECT_EQ(v.clean, v.vm != victim) << "vm " << v.vm;
  }
  EXPECT_EQ(normalized_json(report),
            normalized_json(ModChecker(env->hypervisor())
                                .scan_pool(module, env->guests())));
}

/// Copies `vm`'s page directory, and the page table mapping `page_va`,
/// into fresh frames, backs `page_va` there with a fresh frame holding the
/// page's bytes after `mutate`, and returns the new directory's address.
/// No frame a walk has read is written: the page changes only when the
/// caller loads the directory into CR3.
std::uint64_t build_remapping_tables(vmm::Hypervisor& hv, vmm::DomainId vm,
                                     std::uint32_t page_va,
                                     const std::function<void(Bytes&)>& mutate) {
  vmm::Domain& dom = hv.domain(vm);
  vmm::PhysicalMemory& memory = dom.memory();
  const auto fresh_frame = [&](const Bytes& bytes) {
    const std::uint64_t pa = std::uint64_t{memory.alloc_frame()}
                             << vmm::kFrameShift;
    memory.write(pa, ByteView(bytes));
    return static_cast<std::uint32_t>(pa);
  };
  const auto read_frame = [&](std::uint64_t pa) {
    Bytes frame(vmm::kFrameSize, 0);
    memory.read(pa & ~std::uint64_t{vmm::kFrameSize - 1},
                MutableByteView(frame));
    return frame;
  };
  constexpr std::uint32_t kFlags = vmm::kFrameSize - 1;
  Bytes directory = read_frame(dom.cr3());
  const std::uint32_t pde_at = 4 * (page_va >> 22);
  const std::uint32_t pde = load_le32(ByteView(directory), pde_at);
  Bytes table = read_frame(pde);
  const std::uint32_t pte_at = 4 * ((page_va >> vmm::kFrameShift) & 0x3FF);
  const std::uint32_t pte = load_le32(ByteView(table), pte_at);
  Bytes page = read_frame(pte);
  mutate(page);
  store_le32(MutableByteView(table), pte_at,
             fresh_frame(page) | (pte & kFlags));
  store_le32(MutableByteView(directory), pde_at,
             fresh_frame(table) | (pde & kFlags));
  return fresh_frame(directory);
}

TEST(PageTableRemap, Cr3SwitchToRemappingTables) {
  // The guest builds a second page directory that maps one hal.dll page to
  // a patched copy, and a tick runs before it loads it; then the CR3
  // switch alone, with no guest write, must be seen.
  auto env = make_env(4);
  IncrementalScanner incremental(env->hypervisor());
  const std::string module = "hal.dll";
  const vmm::DomainId victim = env->guests()[1];
  for (const PoolVmVerdict& v :
       incremental.scan(module, env->guests()).verdicts) {
    ASSERT_TRUE(v.clean) << "vm " << v.vm;
  }
  std::size_t size = 0;
  const std::uint32_t base = module_base(*env, victim, module, &size);
  ASSERT_GT(size, 2 * std::size_t{vmm::kFrameSize});
  const std::uint64_t directory = build_remapping_tables(
      env->hypervisor(), victim,
      (base & ~(vmm::kFrameSize - 1)) + vmm::kFrameSize,
      [](Bytes& page) { page[0x80] ^= 0x01; });
  for (const PoolVmVerdict& v :
       incremental.scan(module, env->guests()).verdicts) {
    EXPECT_TRUE(v.clean) << "vm " << v.vm << " before the switch";
  }

  env->hypervisor().domain(victim).set_cr3(directory);
  const PoolScanReport report = incremental.scan(module, env->guests());
  for (const PoolVmVerdict& v : report.verdicts) {
    EXPECT_EQ(v.clean, v.vm != victim) << "vm " << v.vm;
  }
  EXPECT_EQ(normalized_json(report),
            normalized_json(ModChecker(env->hypervisor())
                                .scan_pool(module, env->guests())));
}

TEST(PageTableRemap, Cr3SwitchToRemappingTablesRenamesLoaderEntry) {
  // The switched-to tables map hal.dll's loader-entry page to a copy that
  // names the module "hal.dl"; the frame every earlier walk read keeps
  // the real name.
  auto env = make_env(4);
  IncrementalScanner incremental(env->hypervisor());
  const std::string module = "hal.dll";
  const vmm::DomainId victim = env->guests()[2];
  const std::string warm =
      normalized_json(incremental.scan(module, env->guests()));

  guestos::GuestKernel& kernel = env->kernel(victim);
  const guestos::LdrEntry entry = ldr_entry(kernel, module);
  const std::uint32_t length_va = entry.entry_va +
                                  kernel.profile().off_base_dll_name +
                                  guestos::kOffUsLength;
  const std::uint32_t page_va = length_va & ~(vmm::kFrameSize - 1);
  ASSERT_LT(length_va - page_va + 2, vmm::kFrameSize);
  env->hypervisor().domain(victim).set_cr3(build_remapping_tables(
      env->hypervisor(), victim, page_va, [&](Bytes& page) {
        const std::uint32_t at = length_va - page_va;
        store_le16(MutableByteView(page), at,
                   static_cast<std::uint16_t>(
                       load_le16(ByteView(page), at) - 2));
      }));

  const std::string event =
      normalized_json(incremental.scan(module, env->guests()));
  EXPECT_NE(event, warm);
  EXPECT_EQ(event, normalized_json(ModChecker(env->hypervisor())
                                       .scan_pool(module, env->guests())));
}

const Bytes& golden_of(cloud::CloudEnvironment& env,
                       const std::string& module) {
  return env.golden().file(module);
}
const Bytes& golden_of(cloud::LinuxEnvironment& env,
                       const std::string& module) {
  return env.golden_file(module);
}

/// Renames `module`'s loader entry in place to `name` (same length).
void rename_entry(guestos::GuestKernel& kernel, const std::string& module,
                  const std::string& name) {
  ASSERT_EQ(name.size(), module.size());
  const guestos::LdrEntry entry = ldr_entry(kernel, module);
  const guestos::GuestProfile& profile = kernel.profile();
  const std::uint32_t name_va = entry.entry_va + profile.off_base_dll_name;
  vmm::AddressSpace& aspace = kernel.address_space();
  if (profile.inline_names) {
    aspace.write_virtual(name_va, as_bytes(name));
    return;
  }
  Bytes buffer_va(4, 0);
  aspace.read_virtual(name_va + guestos::kOffUsBuffer,
                      MutableByteView(buffer_va));
  Bytes utf16;
  for (const char c : name) {
    utf16.push_back(static_cast<std::uint8_t>(c));
    utf16.push_back(0);
  }
  aspace.write_virtual(load_le32(ByteView(buffer_va), 0), ByteView(utf16));
}

/// Sequential and 4-worker caches following the same guest state; each
/// tick matches a fresh scan and the two agree on simulated CPU time.
struct LoaderPools {
  LoaderPools(const vmm::Hypervisor& hv, telemetry::MetricRegistry& reg,
              telemetry::MetricRegistry& par_reg)
      : sequential(hv, with_metrics(reg, 1)),
        parallel(hv, with_metrics(par_reg, 4)),
        hypervisor(&hv) {}

  std::string tick(const std::string& module,
                   const std::vector<vmm::DomainId>& pool,
                   const std::string& where) {
    ModChecker fresh(*hypervisor);
    const PoolScanReport a =
        checked_tick(sequential, fresh, module, pool, where + " sequential");
    const PoolScanReport b =
        checked_tick(parallel, fresh, module, pool, where + " parallel");
    EXPECT_EQ(a.cpu_times.total(), b.cpu_times.total()) << where;
    return normalized_json(a);
  }

  CachedPool sequential;
  CachedPool parallel;
  const vmm::Hypervisor* hypervisor;
};

/// The loader-change script, PE or ELF: `module` on a pool of six.
template <typename Env>
void run_loader_script(Env& env, const std::string& module,
                       const std::string& other_module,
                       const std::string& renamed) {
  const std::vector<vmm::DomainId>& pool = env.guests();
  ASSERT_EQ(pool.size(), 6u);
  std::vector<vmm::DomainSnapshot> snapshots;
  for (const vmm::DomainId vm : pool) {
    snapshots.push_back(env.hypervisor().snapshot(vm));
  }
  telemetry::MetricRegistry reg;
  telemetry::MetricRegistry par_reg;
  LoaderPools pools(env.hypervisor(), reg, par_reg);
  const IncrementalStats& stats = pools.sequential.cache.stats();
  const std::string warm = pools.tick(module, pool, "warm");
  EXPECT_EQ(stats.loader_walks, pool.size());
  EXPECT_EQ(stats.loader_reuses, 0u);

  // Module-page weather only: the snapshot answers, no walk.
  const auto weather = [&](vmm::DomainId vm) {
    const guestos::LdrEntry e = ldr_entry(env.kernel(vm), module);
    rewrite_same(env.kernel(vm).address_space(), e.dll_base + 0x200, 16);
  };
  weather(pool[0]);
  EXPECT_EQ(pools.tick(module, pool, "weather"), warm);
  EXPECT_EQ(stats.loader_walks, pool.size());
  EXPECT_EQ(stats.loader_reuses, 1u);
  EXPECT_EQ(reg.counter("incremental.loader_walks").value(), pool.size());
  EXPECT_EQ(reg.counter("incremental.loader_reuses").value(), 1u);

  // DKOM unlink.
  ASSERT_TRUE(env.kernel(pool[1]).unlink_module_entry(module));
  EXPECT_NE(pools.tick(module, pool, "unlinked"), warm);
  EXPECT_EQ(stats.loader_walks, pool.size() + 1);

  // Unload and reload at a different base.
  const guestos::LdrEntry before = ldr_entry(env.kernel(pool[2]), module);
  env.loader(pool[2]).unload(module);
  env.loader(pool[2]).load(module, ByteView(golden_of(env, module)));
  EXPECT_NE(ldr_entry(env.kernel(pool[2]), module).dll_base, before.dll_base);
  pools.tick(module, pool, "reloaded elsewhere");

  // Unload, then relink the entry over the pages still in place.
  const guestos::LdrEntry same = ldr_entry(env.kernel(pool[3]), module);
  ASSERT_TRUE(env.kernel(pool[3]).unlink_module_entry(module));
  pools.tick(module, pool, "unloaded");
  env.kernel(pool[3]).insert_module_entry(module, same.dll_base,
                                          same.entry_point,
                                          same.size_of_image);
  pools.tick(module, pool, "reloaded in place");

  // Entry-name rewrite: the module is gone by name.
  rename_entry(env.kernel(pool[4]), module, renamed);
  pools.tick(module, pool, "renamed");

  // A loader write and module-page weather in the same tick.
  const std::uint64_t walks = stats.loader_walks;
  ASSERT_TRUE(env.kernel(pool[5]).unlink_module_entry(other_module));
  weather(pool[5]);
  pools.tick(module, pool, "loader and weather");
  EXPECT_EQ(stats.loader_walks, walks + 1);

  // Clone-into: one guest's whole state replaces another's.
  env.hypervisor().restore(
      vmm::DomainSnapshot(pool[4], env.hypervisor().domain(pool[0])));
  pools.tick(module, pool, "cloned into");

  // Restore: every guest back to its snapshot, all clean again.
  for (const vmm::DomainSnapshot& snapshot : snapshots) {
    env.hypervisor().restore(snapshot);
  }
  EXPECT_EQ(pools.tick(module, pool, "restored"), warm);
  const IncrementalStats& p = pools.parallel.cache.stats();
  EXPECT_EQ(stats.loader_walks, p.loader_walks);
  EXPECT_EQ(stats.loader_reuses, p.loader_reuses);
}

TEST(LoaderSnapshot, ListChangesBetweenTicksPe) {
  auto env = make_env(6);
  run_loader_script(*env, "hal.dll", "ntfs.sys", "hbl.dll");
}

TEST(LoaderSnapshot, ListChangesBetweenTicksElf) {
  auto env = make_linux_env(6);
  run_loader_script(*env, "e1000", "scsi_mod", "e1001");
}

TEST(LoaderSnapshot, AcquireSpanSaysWhetherTheListWasWalked) {
  auto env = make_env(3);
  telemetry::TraceRecorder rec;
  ModCheckerConfig cfg;
  cfg.tracer = &rec;
  CachedPool cached(env->hypervisor(), std::move(cfg));
  const std::string module = "hal.dll";
  const auto loader_args = [&] {
    std::vector<std::string> values;
    for (const telemetry::SpanRecord& span : rec.drain()) {
      for (const telemetry::SpanArg& arg : span.args) {
        if (span.name == "acquire" && arg.key == "loader") {
          values.push_back(arg.value);
        }
      }
    }
    return values;
  };
  cached.scan(module, env->guests());
  EXPECT_EQ(loader_args(), std::vector<std::string>(3, "1"));
  cached.scan("ntfs.sys", env->guests());  // same domains: snapshot hits
  EXPECT_EQ(loader_args(), std::vector<std::string>(3, "0"));
  cached.scan(module, env->guests());  // no write at all: no lookup
  EXPECT_TRUE(loader_args().empty());
}

}  // namespace
