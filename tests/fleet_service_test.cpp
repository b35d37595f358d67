// The fleet service (ShardCoordinator) + SweepQueue: scheduling order,
// the admission decision table and backpressure, cancellation (pending,
// in-flight, and recurring), graceful drain vs fast stop, sink fan-out and
// the SweepReport JSON surface.  Runs under the tsan ctest label — the
// service's worker threads, per-pool serialization and queue hand-off must
// be clean under ThreadSanitizer, not just correct single-threaded.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "guestos/kernel.hpp"
#include "guestos/ko_loader.hpp"
#include "service/coordinator.hpp"
#include "telemetry/registry.hpp"

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

// ---- SweepQueue unit ----------------------------------------------------------

QueuedSweep queued(SweepId id, int priority, SimNanos due = 0) {
  QueuedSweep q;
  q.id = id;
  q.spec.priority = priority;
  q.due = due;
  return q;
}

TEST(SweepQueue, PriorityThenDueThenFifo) {
  SweepQueue q;
  EXPECT_TRUE(q.push(queued(1, 0)));
  EXPECT_TRUE(q.push(queued(2, 5)));
  EXPECT_TRUE(q.push(queued(3, 5, /*due=*/sim_ms(10))));
  EXPECT_TRUE(q.push(queued(4, 5)));  // same prio+due as 2 → after it
  EXPECT_EQ(q.pending(), 4u);

  EXPECT_EQ(q.pop()->id, 2u);  // highest priority, earliest due, first in
  EXPECT_EQ(q.pop()->id, 4u);  // FIFO within (priority, due)
  EXPECT_EQ(q.pop()->id, 3u);  // later due
  EXPECT_EQ(q.pop()->id, 1u);  // lowest priority last
}

TEST(SweepQueue, CancelStrikesPendingAndMarksId) {
  SweepQueue q;
  q.push(queued(1, 0));
  q.push(queued(2, 0));
  EXPECT_TRUE(q.cancel(1));
  EXPECT_TRUE(q.is_cancelled(1));
  EXPECT_FALSE(q.is_cancelled(2));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.cancel(7));  // nothing pending under that id
  EXPECT_FALSE(q.push(queued(1, 0)));  // cancelled ids stay refused
  EXPECT_EQ(q.pop()->id, 2u);
}

TEST(SweepQueue, CloseDrainsBacklogThenStops) {
  SweepQueue q;
  q.push(queued(1, 0));
  q.push(queued(2, 1));
  q.close();
  EXPECT_FALSE(q.push(queued(3, 9)));  // refused after close
  EXPECT_EQ(q.pop()->id, 2u);          // backlog still handed out
  q.done();
  EXPECT_EQ(q.pop()->id, 1u);
  q.done();
  EXPECT_FALSE(q.pop().has_value());  // closed and empty
}

TEST(SweepQueue, ClearReportsDropped) {
  SweepQueue q;
  q.push(queued(1, 0));
  q.push(queued(2, 0));
  const std::vector<QueuedSweep> dropped = q.clear();
  ASSERT_EQ(dropped.size(), 2u);
  EXPECT_EQ(dropped[0].id + dropped[1].id, 3u);  // both runs handed back
  EXPECT_EQ(q.pending(), 0u);
}

// ---- SweepQueue::admit ------------------------------------------------------

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
  EXPECT_EQ(q.pop()->id, 1u);  // the queued tick survived
}

TEST(SweepQueueAdmit, EqualTickIsShedNotSwapped) {
  SweepQueue q;
  ASSERT_EQ(q.admit(recurring(1, 3), 1), AdmitResult::kAdmitted);
  // Same priority and due: the incoming tick is not strictly better, so it
  // yields (no churn swaps between equals).
  EXPECT_EQ(q.admit(recurring(2, 3), 1), AdmitResult::kShed);
  EXPECT_EQ(q.pop()->id, 1u);
}

TEST(SweepQueueAdmit, EqualTickYieldsToEveryQueuedEqual) {
  SweepQueue q;
  ASSERT_EQ(q.admit(recurring(1, 3), 2), AdmitResult::kAdmitted);
  ASSERT_EQ(q.admit(recurring(2, 3), 2), AdmitResult::kAdmitted);
  // The incoming tick pops after both queued equals (FIFO), so it is the
  // one shed — not the later-queued of the two.
  EXPECT_EQ(q.admit(recurring(3, 3), 2), AdmitResult::kShed);
  EXPECT_EQ(q.pop()->id, 1u);
  EXPECT_EQ(q.pop()->id, 2u);
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
  EXPECT_EQ(q.pop()->id, 2u);
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

// ---- scheduling ---------------------------------------------------------------
//
// The FleetService suite keeps the service layer's name; every case drives
// a ShardCoordinator, the one fleet front door.

TEST(FleetService, PriorityOrderingObservableWithOneWorker) {
  auto env = make_env(4);
  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);

  // Submitted low-priority first; the high-priority sweep must still run
  // first once the (single) worker starts.
  fleet.submit(spec("background", pool, {"ntfs.sys"}, 0));
  fleet.submit(spec("urgent", pool, {"hal.dll"}, 10));
  fleet.submit(spec("routine", pool, {"http.sys"}, 5));
  fleet.start();
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].name, "urgent");
  EXPECT_EQ(reports[1].name, "routine");
  EXPECT_EQ(reports[2].name, "background");
  EXPECT_EQ(fleet.stats().completed_runs, 3u);
}

TEST(FleetService, EqualPriorityRunsFifo) {
  auto env = make_env(4);
  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  for (const char* name : {"a", "b", "c"}) {
    fleet.submit(spec(name, pool, {"hal.dll"}, 3));
  }
  fleet.start();
  fleet.drain();
  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].name, "a");
  EXPECT_EQ(reports[1].name, "b");
  EXPECT_EQ(reports[2].name, "c");
}

TEST(FleetService, FindingsSurfaceInfectedVm) {
  auto env = make_env(5);
  const vmm::DomainId infected = env->guests()[2];
  attacks::InlineHookAttack{}.apply(*env, infected, "hal.dll");

  ShardCoordinator fleet({/*workers=*/2});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  fleet.submit(spec("audit", pool, {"hal.dll", "ntfs.sys"}));
  fleet.start();
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].scans.size(), 2u);
  ASSERT_EQ(reports[0].findings.size(), 1u);
  EXPECT_EQ(reports[0].findings[0].module, "hal.dll");
  EXPECT_EQ(reports[0].findings[0].vm, infected);
  EXPECT_GT(reports[0].wall_time, 0u);
}

// ---- cancellation -------------------------------------------------------------

TEST(FleetService, CancelPendingBeforeStart) {
  auto env = make_env(4);
  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  fleet.submit(spec("keep", pool, {"hal.dll"}));
  const SweepId doomed = fleet.submit(spec("doomed", pool, {"ntfs.sys"}));
  ASSERT_NE(doomed, 0u);
  EXPECT_TRUE(fleet.cancel(doomed));
  fleet.start();
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].name, "keep");
  EXPECT_EQ(fleet.stats().dropped_pending, 1u);
  EXPECT_EQ(fleet.stats().cancelled_runs, 0u);
}

TEST(FleetService, CancelMidSweepStopsBeforeNextModule) {
  auto env = make_env(4);
  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);

  // The hook fires before each module scan — cancel the sweep from inside
  // its own first module, exactly the operator's "abort that" race.
  std::atomic<SweepId> target{0};
  ShardCoordinator* fleet_ptr = &fleet;
  fleet.set_module_hook([&target, fleet_ptr](SweepId id, std::size_t,
                                             const std::string& module) {
    if (id == target.load() && module == "hal.dll") {
      fleet_ptr->cancel(id);
    }
  });
  const SweepId id =
      fleet.submit(spec("aborted", pool, {"hal.dll", "ntfs.sys", "http.sys"}));
  target.store(id);
  fleet.start();
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].cancelled);
  // hal.dll was already being scanned when the cancel landed; the sweep
  // stopped before ntfs.sys.
  ASSERT_EQ(reports[0].scans.size(), 1u);
  EXPECT_EQ(reports[0].scans[0].module_name, "hal.dll");
  EXPECT_EQ(fleet.stats().cancelled_runs, 1u);
  EXPECT_EQ(fleet.stats().completed_runs, 0u);
}

TEST(FleetService, CancelStopsRecurrence) {
  auto env = make_env(4);
  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);

  std::atomic<SweepId> target{0};
  ShardCoordinator* fleet_ptr = &fleet;
  fleet.set_module_hook(
      [&target, fleet_ptr](SweepId id, std::size_t run, const std::string&) {
        if (id == target.load() && run == 1) {
          fleet_ptr->cancel(id);  // after run 0 completed, during run 1
        }
      });
  SweepSpec recurring = spec("recurring", pool, {"hal.dll"});
  recurring.repeat = 5;
  recurring.cadence = sim_ms(100);
  target.store(fleet.submit(recurring));
  fleet.start();
  fleet.drain();

  // Run 0 completed; run 1's single module was already in flight when the
  // cancel landed, so it completed too — but its recurrence was refused.
  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].run_index, 0u);
  EXPECT_EQ(reports[1].run_index, 1u);
  EXPECT_EQ(fleet.stats().completed_runs, 2u);
}

// ---- recurrence, drain, stop --------------------------------------------------

TEST(FleetService, RecurringSweepRunsRepeatTimesOnCadence) {
  auto env = make_env(4);
  ShardCoordinator fleet({/*workers=*/2});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  SweepSpec recurring = spec("heartbeat", pool, {"hal.dll"});
  recurring.repeat = 3;
  recurring.cadence = sim_ms(250);
  fleet.submit(recurring);
  fleet.start();
  fleet.drain();  // waits for the whole finite repeat chain

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reports[i].run_index, i);
    EXPECT_EQ(reports[i].due, i * sim_ms(250));
  }
  EXPECT_EQ(fleet.stats().completed_runs, 3u);
}

TEST(FleetService, SubmitAfterDrainIsRefused) {
  auto env = make_env(4);
  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  fleet.start();
  fleet.drain();
  EXPECT_EQ(fleet.submit(spec("late", pool, {"hal.dll"})), 0u);
  EXPECT_EQ(fleet.stats().submitted, 0u);
}

TEST(FleetService, StopDropsBacklog) {
  auto env = make_env(4);
  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  // Never started: everything submitted stays pending until stop().
  fleet.submit(spec("a", pool, {"hal.dll"}));
  fleet.submit(spec("b", pool, {"ntfs.sys"}));
  fleet.submit(spec("c", pool, {"http.sys"}));
  EXPECT_EQ(fleet.pending_sweeps(), 3u);
  fleet.stop();
  EXPECT_EQ(fleet.stats().dropped_pending, 3u);
  EXPECT_EQ(ring->total_seen(), 0u);
  EXPECT_EQ(fleet.submit(spec("late", pool, {"hal.dll"})), 0u);
}

// ---- multi-pool / multi-worker stress (the TSan target) -----------------------

TEST(FleetService, MultiPoolSweepsDrainCleanUnderContention) {
  auto env_a = make_env(4);
  // Pool b needs >= 4 VMs: with one infected copy among t=3, the clean
  // pair only reaches a 1-of-2 tie and the vote flags everyone.
  auto env_b = make_env(4);
  const vmm::DomainId infected = env_b->guests()[1];
  attacks::InlineHookAttack{}.apply(*env_b, infected, "hal.dll");

  ShardCoordinator fleet({/*workers=*/4});
  const std::size_t pool_a = fleet.add_pool(env_a->hypervisor(),
                                            env_a->guests());
  const std::size_t pool_b = fleet.add_pool(env_b->hypervisor(),
                                            env_b->guests());
  auto ring = std::make_shared<RingSink>();
  std::ostringstream json_out;
  auto json = std::make_shared<JsonLinesSink>(json_out);
  fleet.add_sink(ring);
  fleet.add_sink(json);
  fleet.start();  // submit *after* start: workers race the submissions

  const int kSweepsPerPool = 6;
  for (int i = 0; i < kSweepsPerPool; ++i) {
    // append, not `"a" + std::to_string(i)`: GCC 12 at -O3 raises a
    // false -Werror=restrict on that operator+ overload.
    const std::string index = std::to_string(i);
    fleet.submit(spec(std::string("a").append(index), pool_a,
                      {"hal.dll", "ntfs.sys"}, i % 3));
    fleet.submit(spec(std::string("b").append(index), pool_b, {"hal.dll"},
                      i % 3));
  }
  fleet.drain();

  EXPECT_EQ(ring->total_seen(), 2u * kSweepsPerPool);
  EXPECT_EQ(fleet.stats().completed_runs, 2u * kSweepsPerPool);
  EXPECT_EQ(fleet.stats().cancelled_runs, 0u);

  // Every pool-b sweep must flag the infected VM; pool-a stays silent.
  for (const auto& report : ring->snapshot()) {
    if (report.pool_index == pool_b) {
      ASSERT_EQ(report.findings.size(), 1u) << report.name;
      EXPECT_EQ(report.findings[0].vm, infected);
    } else {
      EXPECT_TRUE(report.findings.empty()) << report.name;
    }
  }
}

// ---- coordinator: workers, registry, backpressure ----------------------------

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

std::vector<std::string> sorted_lines(const std::string& blob) {
  std::vector<std::string> lines;
  std::istringstream in(blob);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// The worker count (shards × workers_per_shard) is a scheduling decision,
// not a semantic one: the same submissions against the same pools emit the
// same report set at any count (order aside — runs complete in parallel).
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

// One queue: no per-shard metric views at any shard count, and the
// admission counters are registered whether or not the queue is bounded.
TEST(ShardCoordinator, RegistryHoldsAdmissionCountersAndNoShardViews) {
  auto env = make_env(3);
  for (const std::size_t shards : {1u, 2u}) {
    telemetry::MetricRegistry reg;
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

    const auto snap = reg.snapshot();
    std::set<std::string> names;
    for (const auto& counter : snap.counters) {
      names.insert(counter.name);
    }
    for (const auto& gauge : snap.gauges) {
      names.insert(gauge.name);
    }
    EXPECT_EQ(names.count("coordinator.load_shed"), 1u) << shards;
    EXPECT_EQ(names.count("coordinator.overflow"), 1u) << shards;
    for (const std::string& name : names) {
      EXPECT_NE(name.rfind("shard", 0), 0u) << name;
    }
  }
}

// A queue bound of 4 under 2x oversubmission: the surplus recurring ticks
// are shed (at the door or evicted by unsheddable work), every one-shot and
// alerted sweep runs to completion, and the backlog never grows past the
// bound plus the overflow admissions that unsheddable work forced.
TEST(ShardCoordinator, BackpressureShedsTicksButNeverOneShotsOrAlerts) {
  constexpr std::size_t kCapacity = 4;
  constexpr std::size_t kPools = 4;
  std::vector<std::unique_ptr<cloud::CloudEnvironment>> envs;
  for (std::size_t p = 0; p < kPools; ++p) {
    envs.push_back(make_env(3));
  }
  telemetry::MetricRegistry reg;
  CoordinatorConfig cfg;
  cfg.workers_per_shard = 2;
  cfg.metrics = &reg;
  cfg.queue_capacity = kCapacity;
  ShardCoordinator coordinator(cfg);
  for (auto& env : envs) {
    coordinator.add_pool(env->hypervisor(), env->guests());
  }
  auto ring = std::make_shared<RingSink>(64);
  coordinator.add_sink(ring);
  std::atomic<std::size_t> peak{0};
  const auto sample = [&] {
    const std::size_t now = coordinator.pending_sweeps();
    std::size_t seen = peak.load();
    while (seen < now && !peak.compare_exchange_weak(seen, now)) {
    }
  };
  coordinator.set_module_hook(
      [&](SweepId, std::size_t, const std::string&) { sample(); });

  // Everything is pushed before a worker exists, so admission alone
  // decides who survives the burst: 2 x capacity recurring ticks, then two
  // alerted recurring sweeps and capacity one-shots, all unsheddable.
  const auto tick = [&](std::size_t i, bool alert) {
    SweepSpec s = spec(std::string(alert ? "alert-" : "tick-")
                           .append(std::to_string(i)),
                       i % kPools, {"hal.dll"});
    s.repeat = 2;
    s.cadence = sim_ms(100);
    s.event_driven = true;
    s.alerted = alert;
    return s;
  };
  for (std::size_t i = 0; i < 2 * kCapacity; ++i) {
    coordinator.submit(tick(i, false));
    sample();
  }
  std::set<SweepId> protected_ids;
  for (std::size_t i = 0; i < 2; ++i) {
    protected_ids.insert(coordinator.submit(tick(i, true)));
    sample();
  }
  for (std::size_t i = 0; i < kCapacity; ++i) {
    protected_ids.insert(coordinator.submit(
        spec(std::string("once-").append(std::to_string(i)), i % kPools,
             {"hal.dll"})));
    sample();
  }
  coordinator.start();
  coordinator.drain();

  const auto stats = coordinator.stats();
  EXPECT_GT(stats.load_shed, 0u);
  EXPECT_GT(stats.overflow, 0u);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_LE(peak.load(), kCapacity + stats.overflow);
  // No protected sweep was refused, and each ran every one of its runs:
  // two per alerted sweep, one per one-shot.
  EXPECT_EQ(protected_ids.count(0), 0u);
  ASSERT_EQ(protected_ids.size(), 2 + kCapacity);
  std::size_t protected_runs = 0;
  for (const SweepReport& report : ring->snapshot()) {
    EXPECT_FALSE(report.cancelled);
    protected_runs += protected_ids.count(report.id);
  }
  EXPECT_EQ(protected_runs, 2 * 2 + kCapacity);
  EXPECT_EQ(reg.gauge("service.event_states").value(), 0);
}

// ---- report JSON --------------------------------------------------------------

TEST(SweepReportJson, SchemaSubstrings) {
  auto env = make_env(4);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[1], "hal.dll");
  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  std::ostringstream out;
  auto json = std::make_shared<JsonLinesSink>(out);
  fleet.add_sink(ring);
  fleet.add_sink(json);
  fleet.submit(spec("jsoncheck", pool, {"hal.dll"}));
  fleet.start();
  fleet.drain();

  ASSERT_EQ(ring->snapshot().size(), 1u);
  const std::string line = to_json(ring->snapshot()[0]);
  for (const char* needle :
       {"\"sweep\":\"jsoncheck\"", "\"run\":0", "\"cancelled\":false",
        "\"findings\":[{\"module\":\"hal.dll\"", "\"scans\":[",
        // the embedded PoolScanReport schema, incl. the new diagnostics
        "\"verdicts\":[", "\"fastpath_pairs\":", "\"fallback_pairs\":",
        "\"cpu_ns\":"}) {
    EXPECT_NE(line.find(needle), std::string::npos) << needle << "\n" << line;
  }
  // The sink wrote exactly that line.
  EXPECT_EQ(out.str(), line + "\n");
}

TEST(RingSink, CapacityEvictsOldest) {
  RingSink ring(2);
  SweepReport r;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    r.id = i;
    ring.on_sweep(r);
  }
  const auto kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].id, 2u);
  EXPECT_EQ(kept[1].id, 3u);
  EXPECT_EQ(ring.total_seen(), 3u);
}

}  // namespace
