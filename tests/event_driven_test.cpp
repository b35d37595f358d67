// Event-driven sweeps: the differential gate (watch-driven incremental
// verdicts and report JSON byte-identical to a full ModChecker::scan_pool
// in every state — clean pools at every paper pool size, E1-E4 attacks
// landing between ticks on PE and ELF guests, and fuzzed write-weather),
// plus fleet-service dirty-scheduling: clean cadence ticks are skipped via
// the WriteWatch generation check and re-emit the previous results, an
// attack between ticks un-skips exactly the dirty tick, and event/full
// sweeps over the same pool stay report-identical.
//
// Timing fields (wall_ns / cpu_ns) and the fastpath pair counters are
// zeroed before comparing JSON: the incremental scanner deliberately pays
// a different simulated cost (that asymmetry is the whole point) and
// comparisons of cached parses bypass the fastpath counters; everything
// the operator alerts on — verdicts, quorum, module identity — must match
// byte for byte.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "attacks/byte_patch.hpp"
#include "attacks/dll_import_inject.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/stub_patch.hpp"
#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "elf/parser.hpp"
#include "guestos/kernel.hpp"
#include "guestos/ko_loader.hpp"
#include "modchecker/incremental.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/report_json.hpp"
#include "service/coordinator.hpp"
#include "telemetry/registry.hpp"
#include "util/bytes.hpp"

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

}  // namespace
