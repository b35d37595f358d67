// ShardCoordinator + the primitives under it: consistent-hash routing
// (including the trailing-digit avalanche regression), the admission
// decision table, single-shard byte-identity with the FleetService facade,
// multi-shard report identity, work stealing, deterministic chaos
// re-sharding with zero sweep loss, SLO frontier accounting, and the
// per-shard MetricView namespace.  Runs under the tsan ctest label: the
// coordinator's steal path, chaos kill, and shared wake signal must be
// clean under ThreadSanitizer, not just correct.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "guestos/kernel.hpp"
#include "guestos/ko_loader.hpp"
#include "service/coordinator.hpp"
#include "service/fleet.hpp"
#include "telemetry/view.hpp"
#include "util/hash_ring.hpp"

namespace {

using namespace mc;
using namespace mc::service;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

SweepSpec spec(std::string name, std::size_t pool,
               std::vector<std::string> modules, int priority = 0) {
  SweepSpec s;
  s.name = std::move(name);
  s.pool_index = pool;
  s.modules = std::move(modules);
  s.priority = priority;
  return s;
}

// ---- HashRing -----------------------------------------------------------------

std::vector<std::string> pool_keys(std::size_t count) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back("pool-" + std::to_string(i));
  }
  return keys;
}

// Regression for the FNV-1a clustering bug: keys differing only in their
// trailing digits must not all land on one node.  Raw FNV-1a put every
// "pool-N" key within a ~2^48 arc (the last byte never avalanches), so one
// shard owned the whole fleet; ring_hash's fmix64 finalizer spreads them.
TEST(HashRing, TrailingDigitKeysSpreadAcrossNodes) {
  HashRing ring;
  for (std::size_t n = 0; n < 4; ++n) {
    ring.add_node(n);
  }
  std::map<std::size_t, std::size_t> load;
  for (const std::string& key : pool_keys(24)) {
    ++load[ring.owner(key)];
  }
  EXPECT_EQ(load.size(), 4u) << "every node must own at least one key";
  for (const auto& [node, count] : load) {
    EXPECT_LT(count, 24u / 2) << "node " << node << " owns half the keys";
  }
}

TEST(HashRing, OwnerIsDeterministicAcrossRings) {
  HashRing a;
  HashRing b;
  for (std::size_t n = 0; n < 5; ++n) {
    a.add_node(n);
    b.add_node(n);
  }
  for (const std::string& key : pool_keys(50)) {
    EXPECT_EQ(a.owner(key), b.owner(key)) << key;
  }
  EXPECT_EQ(a.owner_of_index("pool", 7), a.owner("pool-7"));
}

TEST(HashRing, AddNodeMovesOnlyKeysItNowOwns) {
  HashRing ring;
  for (std::size_t n = 0; n < 8; ++n) {
    ring.add_node(n);
  }
  const auto keys = pool_keys(200);
  std::vector<std::size_t> before;
  for (const std::string& key : keys) {
    before.push_back(ring.owner(key));
  }

  ring.add_node(8);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t now = ring.owner(keys[i]);
    if (now != before[i]) {
      EXPECT_EQ(now, 8u) << "a moved key may only move to the new node";
      ++moved;
    }
  }
  // The new node's fair share is 1/9 of the keys; allow generous slack but
  // reject a reshuffle (modulo assignment would move ~8/9 of them).
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, keys.size() / 2);
}

TEST(HashRing, RemoveNodeLeavesSurvivorAssignmentsUntouched) {
  HashRing ring;
  for (std::size_t n = 0; n < 4; ++n) {
    ring.add_node(n);
  }
  const auto keys = pool_keys(100);
  std::vector<std::size_t> before;
  for (const std::string& key : keys) {
    before.push_back(ring.owner(key));
  }
  const std::size_t dead = ring.owner(keys[0]);

  ring.remove_node(dead);
  EXPECT_FALSE(ring.contains(dead));
  EXPECT_EQ(ring.node_count(), 3u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t now = ring.owner(keys[i]);
    EXPECT_NE(now, dead);
    if (before[i] != dead) {
      EXPECT_EQ(now, before[i])
          << keys[i] << " was not on the dead node and must not move";
    }
  }
}

// ---- SweepQueue::admit --------------------------------------------------------

QueuedSweep recurring(SweepId id, int priority) {
  QueuedSweep q;
  q.id = id;
  q.spec.priority = priority;
  q.spec.repeat = 3;  // sheddable
  return q;
}

QueuedSweep one_shot(SweepId id, int priority) {
  QueuedSweep q;
  q.id = id;
  q.spec.priority = priority;
  return q;  // repeat == 1 → never sheddable
}

QueuedSweep alerted(SweepId id, int priority) {
  QueuedSweep q = recurring(id, priority);
  q.spec.alerted = true;  // recurring but exempt from shedding
  return q;
}

TEST(SweepQueueAdmit, UnderCapacityAdmits) {
  SweepQueue q;
  EXPECT_EQ(q.admit(recurring(1, 0), /*capacity=*/2), AdmitResult::kAdmitted);
  EXPECT_EQ(q.admit(recurring(2, 0), 2), AdmitResult::kAdmitted);
  EXPECT_EQ(q.pending(), 2u);
}

TEST(SweepQueueAdmit, CheapestIncomingTickIsShed) {
  SweepQueue q;
  ASSERT_EQ(q.admit(recurring(1, 5), 1), AdmitResult::kAdmitted);
  std::optional<QueuedSweep> evicted;
  EXPECT_EQ(q.admit(recurring(2, 1), 1, &evicted), AdmitResult::kShed);
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.try_pop()->id, 1u);  // the queued tick survived
}

TEST(SweepQueueAdmit, EqualTickIsShedNotSwapped) {
  SweepQueue q;
  ASSERT_EQ(q.admit(recurring(1, 3), 1), AdmitResult::kAdmitted);
  // Same priority and due: the incoming tick is not strictly better, so it
  // yields (no churn swaps between equals).
  EXPECT_EQ(q.admit(recurring(2, 3), 1), AdmitResult::kShed);
  EXPECT_EQ(q.try_pop()->id, 1u);
}

TEST(SweepQueueAdmit, BetterTickEvictsWorseTick) {
  SweepQueue q;
  ASSERT_EQ(q.admit(recurring(1, 1), 1), AdmitResult::kAdmitted);
  std::optional<QueuedSweep> evicted;
  EXPECT_EQ(q.admit(recurring(2, 5), 1, &evicted),
            AdmitResult::kAdmittedEvicted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->id, 1u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.try_pop()->id, 2u);
}

TEST(SweepQueueAdmit, OneShotEvictsRecurringEvenAtLowerPriority) {
  SweepQueue q;
  ASSERT_EQ(q.admit(recurring(1, 9), 1), AdmitResult::kAdmitted);
  std::optional<QueuedSweep> evicted;
  // The one-shot is priority 0, the queued tick priority 9 — unsheddable
  // work is still never the thing dropped.
  EXPECT_EQ(q.admit(one_shot(2, 0), 1, &evicted),
            AdmitResult::kAdmittedEvicted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->id, 1u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(SweepQueueAdmit, UnsheddableBacklogOverflowsTheBound) {
  SweepQueue q;
  ASSERT_EQ(q.admit(one_shot(1, 0), 1), AdmitResult::kAdmitted);
  EXPECT_EQ(q.admit(one_shot(2, 0), 1), AdmitResult::kOverflow);
  EXPECT_EQ(q.pending(), 2u);  // the bound bends instead of dropping
  EXPECT_EQ(q.peak_pending(), 2u);
}

TEST(SweepQueueAdmit, AlertedTicksAreNeverEvicted) {
  SweepQueue q;
  ASSERT_EQ(q.admit(alerted(1, 0), 1), AdmitResult::kAdmitted);
  // A better recurring tick cannot displace the alerted one...
  EXPECT_EQ(q.admit(recurring(2, 9), 1), AdmitResult::kShed);
  // ...and neither can a one-shot: it overflows instead.
  EXPECT_EQ(q.admit(one_shot(3, 9), 1), AdmitResult::kOverflow);
  EXPECT_EQ(q.pending(), 2u);
}

TEST(SweepQueueAdmit, ClosedQueueRefuses) {
  SweepQueue q;
  q.close();
  EXPECT_EQ(q.admit(one_shot(1, 0), 0), AdmitResult::kRefused);
}

// ---- single-shard identity with the facade ------------------------------------

// The facade contract: a shards=1 unbounded coordinator IS the classic
// FleetService — same report bytes on the same pools, findings included.
TEST(ShardCoordinator, SingleShardMatchesFleetServiceByteForByte) {
  auto env = make_env(5);
  const vmm::DomainId infected = env->guests()[2];
  attacks::InlineHookAttack{}.apply(*env, infected, "hal.dll");

  const auto drive = [&](auto& service) {
    const std::size_t pool =
        service.add_pool(env->hypervisor(), env->guests());
    std::ostringstream lines;
    service.add_sink(std::make_shared<JsonLinesSink>(lines));
    // Submitted before start() so the single worker observes priority
    // order, making the line order itself deterministic.
    service.submit(spec("audit", pool, {"hal.dll", "ntfs.sys"}, 5));
    service.submit(spec("background", pool, {"http.sys"}, 0));
    service.start();
    service.drain();
    return lines.str();
  };

  FleetService fleet({/*workers=*/1});
  const std::string classic = drive(fleet);

  CoordinatorConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  ShardCoordinator coordinator(cfg);
  const std::string sharded = drive(coordinator);

  EXPECT_FALSE(classic.empty());
  EXPECT_EQ(classic, sharded);
  EXPECT_NE(classic.find("\"findings\""), std::string::npos);
  // A normally-scheduled run never carries re-shard provenance.
  EXPECT_EQ(classic.find("rescheduled_from_shard"), std::string::npos);
}

// An event-driven sweep over a pool holding an unparseable copy (corrupted
// ELF magic) completes with the copy flagged, and the worker goes on to
// serve the next sweep instead of dying on the parse error.
TEST(ShardCoordinator, EventSweepOverUnparseableCopyKeepsWorkerServing) {
  cloud::LinuxCloudConfig linux_cfg;
  linux_cfg.guest_count = 4;
  cloud::LinuxEnvironment env(linux_cfg);
  const vmm::DomainId victim = env.guests()[1];
  const guestos::LoadedKo* ko = env.loader(victim).find("e1000");
  ASSERT_NE(ko, nullptr);
  const Bytes garbage = {'X', 'X', 'X', 'X'};
  env.kernel(victim).address_space().write_virtual(ko->base,
                                                   ByteView(garbage));

  CoordinatorConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  ShardCoordinator coordinator(cfg);
  const std::size_t pool = coordinator.add_pool(env.hypervisor(), env.guests());
  auto ring = std::make_shared<RingSink>();
  coordinator.add_sink(ring);
  SweepSpec event = spec("event", pool, {"e1000"});
  event.event_driven = true;
  const SweepId event_id = coordinator.submit(event);
  const SweepId full_id = coordinator.submit(spec("full", pool, {"e1000"}));
  coordinator.start();
  coordinator.drain();

  EXPECT_EQ(coordinator.stats().completed_runs, 2u);
  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 2u);
  for (const SweepReport& report : reports) {
    EXPECT_TRUE(report.id == event_id || report.id == full_id);
    ASSERT_EQ(report.findings.size(), 1u) << report.name;
    EXPECT_EQ(report.findings[0].vm, victim) << report.name;
  }
}

// ---- multi-shard report identity ----------------------------------------------

std::vector<std::string> sorted_lines(const std::string& blob) {
  std::vector<std::string> lines;
  std::istringstream in(blob);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// Sharding is a scheduling decision, not a semantic one: the same
// submissions against the same pools emit the same report set at any shard
// count (order aside — runs complete shard-parallel).
TEST(ShardCoordinator, ShardCountDoesNotChangeReportContents) {
  constexpr std::size_t kPools = 6;
  std::vector<std::unique_ptr<cloud::CloudEnvironment>> envs;
  for (std::size_t p = 0; p < kPools; ++p) {
    envs.push_back(make_env(4));
  }
  attacks::InlineHookAttack{}.apply(*envs[1], envs[1]->guests()[0],
                                    "hal.dll");

  const auto drive = [&](std::size_t shards) {
    CoordinatorConfig cfg;
    cfg.shards = shards;
    cfg.workers_per_shard = 1;
    ShardCoordinator coordinator(cfg);
    for (auto& env : envs) {
      coordinator.add_pool(env->hypervisor(), env->guests());
    }
    std::ostringstream lines;
    coordinator.add_sink(std::make_shared<JsonLinesSink>(lines));
    for (std::size_t p = 0; p < kPools; ++p) {
      coordinator.submit(
          spec("audit-" + std::to_string(p), p, {"hal.dll", "ntfs.sys"}));
    }
    coordinator.start();
    coordinator.drain();
    EXPECT_EQ(coordinator.stats().completed_runs, kPools);
    return sorted_lines(lines.str());
  };

  EXPECT_EQ(drive(1), drive(4));
}

// ---- work stealing ------------------------------------------------------------

TEST(ShardCoordinator, IdleShardStealsOwnedBacklog) {
  constexpr std::size_t kPools = 6;
  std::vector<std::unique_ptr<cloud::CloudEnvironment>> envs;
  for (std::size_t p = 0; p < kPools; ++p) {
    envs.push_back(make_env(4));
  }

  CoordinatorConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 1;
  cfg.admission.work_stealing = true;
  cfg.admission.steal_lag = 0;  // steal whenever a sibling has backlog
  ShardCoordinator coordinator(cfg);
  for (auto& env : envs) {
    coordinator.add_pool(env->hypervisor(), env->guests());
  }
  auto ring = std::make_shared<RingSink>(64);
  coordinator.add_sink(ring);

  // Load every sweep onto pools owned by ONE shard (pre-start, so the
  // backlog exists the moment workers spawn).  The other shard has nothing
  // of its own: its worker's only source of work is the steal path.
  const std::size_t loaded = coordinator.shard_of(0);
  std::size_t submitted = 0;
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t p = 0; p < kPools; ++p) {
      if (coordinator.shard_of(p) != loaded) {
        continue;
      }
      coordinator.submit(spec("sweep-" + std::to_string(submitted), p,
                              {"hal.dll", "ntfs.sys"}));
      ++submitted;
    }
  }
  ASSERT_GE(submitted, 3u);
  coordinator.start();
  coordinator.drain();

  const auto stats = coordinator.stats();
  EXPECT_EQ(stats.completed_runs, submitted);
  EXPECT_EQ(ring->total_seen(), submitted);
  EXPECT_GT(stats.steals, 0u);
  const auto shards = coordinator.shard_stats();
  std::uint64_t completed_sum = 0;
  std::uint64_t stolen_sum = 0;
  for (const auto& s : shards) {
    completed_sum += s.completed_runs;
    stolen_sum += s.stolen_runs;
  }
  EXPECT_EQ(completed_sum, submitted);
  EXPECT_EQ(stolen_sum, stats.steals);
  // The thief executed runs it does not own.
  EXPECT_GT(shards[1 - loaded].completed_runs, 0u);
}

// ---- chaos re-sharding --------------------------------------------------------

struct ChaosOutcome {
  std::size_t victim = kNoShard;
  std::uint64_t completed = 0;
  std::uint64_t reshards = 0;
  std::uint64_t rescheduled = 0;
  std::vector<std::size_t> owned_runs;  // per shard, before the kill
  std::vector<std::string> report_lines;
};

ChaosOutcome run_chaos_fleet(std::uint64_t seed) {
  constexpr std::size_t kPools = 8;
  constexpr std::size_t kSweepsPerPool = 3;
  std::vector<std::unique_ptr<cloud::CloudEnvironment>> envs;
  for (std::size_t p = 0; p < kPools; ++p) {
    envs.push_back(make_env(3));
  }

  CoordinatorConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 1;
  // Stealing off: the victim's backlog stays on its queue until the kill,
  // so the rescued count is exactly (owned runs - kills-worth of work) and
  // the replay assertion below is deterministic.
  cfg.admission.work_stealing = false;
  cfg.chaos.enabled = true;
  cfg.chaos.seed = seed;
  cfg.chaos.kill_after_completions = 3;
  ShardCoordinator coordinator(cfg);
  for (auto& env : envs) {
    coordinator.add_pool(env->hypervisor(), env->guests());
  }
  auto ring = std::make_shared<RingSink>(64);
  std::ostringstream lines;
  coordinator.add_sink(ring);
  coordinator.add_sink(std::make_shared<JsonLinesSink>(lines));

  ChaosOutcome out;
  out.owned_runs.assign(cfg.shards, 0);
  for (std::size_t p = 0; p < kPools; ++p) {
    out.owned_runs[coordinator.shard_of(p)] += kSweepsPerPool;
    for (std::size_t i = 0; i < kSweepsPerPool; ++i) {
      // reserve + append, not operator+: GCC 12 at -O3 raises a false
      // -Werror=restrict on `"p" + std::to_string(p)`.
      std::string name;
      name.reserve(16);
      name.append("p").append(std::to_string(p));
      name.append("-s").append(std::to_string(i));
      coordinator.submit(spec(std::move(name), p, {"hal.dll"}));
    }
  }
  coordinator.start();
  coordinator.drain();

  const auto stats = coordinator.stats();
  out.completed = stats.completed_runs;
  out.reshards = stats.reshards;
  out.rescheduled = stats.rescheduled;
  out.report_lines = sorted_lines(lines.str());
  for (const auto& s : coordinator.shard_stats()) {
    if (s.dead) {
      out.victim = s.index;
    }
  }

  EXPECT_EQ(coordinator.live_shards(), cfg.shards - 1);
  // Zero loss: every submitted run completed and emitted a report.
  EXPECT_EQ(out.completed, kPools * kSweepsPerPool);
  EXPECT_EQ(ring->total_seen(), kPools * kSweepsPerPool);
  // Every rescued report carries the dead shard's index as provenance, and
  // only rescued reports carry it.
  std::uint64_t flagged = 0;
  for (const auto& report : ring->snapshot()) {
    if (report.rescheduled_from_shard != kNoShard) {
      EXPECT_EQ(report.rescheduled_from_shard, out.victim);
      ++flagged;
    }
  }
  EXPECT_EQ(flagged, out.rescheduled);
  return out;
}

TEST(ShardCoordinator, ChaosKillLosesNoSweeps) {
  const ChaosOutcome out = run_chaos_fleet(/*seed=*/42);
  ASSERT_NE(out.victim, kNoShard);
  EXPECT_EQ(out.reshards, 1u);
  // Both shards own enough pools that the victim — whichever the seed
  // picked — dies with a backlog; its single worker completed exactly
  // kill_after_completions runs first, so the rest were rescued.
  ASSERT_GT(out.owned_runs[out.victim], 3u);
  EXPECT_EQ(out.rescheduled, out.owned_runs[out.victim] - 3u);
  // The re-shard provenance reaches the JSON surface.
  const auto has_flag = [&](const std::string& line) {
    return line.find("\"rescheduled_from_shard\":") != std::string::npos;
  };
  EXPECT_EQ(static_cast<std::uint64_t>(std::count_if(
                out.report_lines.begin(), out.report_lines.end(), has_flag)),
            out.rescheduled);
}

TEST(ShardCoordinator, ChaosReplaysIdenticallyUnderOneSeed) {
  const ChaosOutcome first = run_chaos_fleet(/*seed=*/7);
  const ChaosOutcome second = run_chaos_fleet(/*seed=*/7);
  EXPECT_EQ(first.victim, second.victim);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.rescheduled, second.rescheduled);
  EXPECT_EQ(first.report_lines, second.report_lines);
}

// ---- SLO frontier -------------------------------------------------------------

TEST(ShardCoordinator, FrontierTracksDueTimesAndFlagsSloMisses) {
  auto env = make_env(3);

  CoordinatorConfig cfg;
  cfg.shards = 2;  // sharded mode: the SLO counters are attached
  cfg.workers_per_shard = 1;
  cfg.admission.work_stealing = false;
  cfg.admission.slo_lag = sim_ms(50);
  ShardCoordinator coordinator(cfg);
  const std::size_t pool =
      coordinator.add_pool(env->hypervisor(), env->guests());

  // One worker owns the pool.  The recurring high-priority sweep runs all
  // three of its ticks (due 0 / 100ms / 200ms) before the low-priority
  // one-shot, so the one-shot starts 200ms behind its due time — one
  // deadline miss, deterministic on the simulated timeline.
  SweepSpec monitor = spec("monitor", pool, {"hal.dll"}, /*priority=*/10);
  monitor.repeat = 3;
  monitor.cadence = sim_ms(100);
  coordinator.submit(monitor);
  coordinator.submit(spec("audit", pool, {"hal.dll"}, /*priority=*/0));
  coordinator.start();
  coordinator.drain();

  EXPECT_EQ(coordinator.frontier(), sim_ms(200));
  const auto stats = coordinator.stats();
  EXPECT_EQ(stats.completed_runs, 4u);
  EXPECT_EQ(stats.deadline_misses, 1u);
}

// ---- telemetry namespaces -----------------------------------------------------

TEST(MetricView, SnapshotFiltersByPrefix) {
  telemetry::MetricRegistry reg;
  reg.counter("service.submitted").inc(3);
  telemetry::MetricView shard0(reg, "shard0.");
  telemetry::MetricView shard1(reg, "shard1.");
  shard0.counter("completed_runs").inc(2);
  shard1.counter("completed_runs").inc(5);

  EXPECT_EQ(shard0.prefix(), "shard0.");
  const auto snap = shard0.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "shard0.completed_runs");
  EXPECT_EQ(snap.counters[0].value, 2u);
  // The full registry still sees every namespace.
  EXPECT_EQ(reg.snapshot().counters.size(), 3u);
}

TEST(ShardCoordinator, ClassicModeKeepsRegistryNamespaceClean) {
  auto env = make_env(3);
  const auto drive = [&](std::size_t shards,
                         telemetry::MetricRegistry& reg) {
    CoordinatorConfig cfg;
    cfg.shards = shards;
    cfg.workers_per_shard = 1;
    cfg.metrics = &reg;
    ShardCoordinator coordinator(cfg);
    const std::size_t pool =
        coordinator.add_pool(env->hypervisor(), env->guests());
    coordinator.submit(spec("audit", pool, {"hal.dll"}));
    coordinator.start();
    coordinator.drain();
  };

  // shards=1, unbounded, no chaos: the historical FleetService namespace —
  // no shard<i>.* or coordinator.* names may appear.
  telemetry::MetricRegistry classic;
  drive(1, classic);
  for (const auto& counter : classic.snapshot().counters) {
    EXPECT_EQ(counter.name.rfind("shard", 0), std::string::npos)
        << counter.name;
    EXPECT_EQ(counter.name.rfind("coordinator.", 0), std::string::npos)
        << counter.name;
  }

  // shards=2: the per-shard views and coordinator counters are live.
  telemetry::MetricRegistry sharded;
  drive(2, sharded);
  const auto snap = sharded.snapshot();
  const auto has_counter = [&](const std::string& name) {
    return std::any_of(snap.counters.begin(), snap.counters.end(),
                       [&](const auto& c) { return c.name == name; });
  };
  EXPECT_TRUE(has_counter("coordinator.steals"));
  EXPECT_TRUE(has_counter("coordinator.reshards"));
  EXPECT_TRUE(has_counter("shard0.completed_runs"));
  EXPECT_TRUE(has_counter("shard1.completed_runs"));
}

}  // namespace
