// FleetService + SweepQueue: scheduling order, cancellation (pending,
// in-flight, and recurring), graceful drain vs fast stop, sink fan-out and
// the SweepReport JSON surface.  Runs under the tsan ctest label — the
// service's worker threads, per-pool serialization and queue hand-off must
// be clean under ThreadSanitizer, not just correct single-threaded.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "service/fleet.hpp"

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
  EXPECT_EQ(q.clear(), 2u);
  EXPECT_EQ(q.pending(), 0u);
}

// ---- FleetService scheduling --------------------------------------------------

TEST(FleetService, PriorityOrderingObservableWithOneWorker) {
  auto env = make_env(4);
  FleetService fleet({/*workers=*/1});
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
  FleetService fleet({/*workers=*/1});
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

  FleetService fleet({/*workers=*/2});
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
  FleetService fleet({/*workers=*/1});
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
  FleetService fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);

  // The hook fires before each module scan — cancel the sweep from inside
  // its own first module, exactly the operator's "abort that" race.
  std::atomic<SweepId> target{0};
  FleetService* fleet_ptr = &fleet;
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
  FleetService fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);

  std::atomic<SweepId> target{0};
  FleetService* fleet_ptr = &fleet;
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
  FleetService fleet({/*workers=*/2});
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
  FleetService fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  fleet.start();
  fleet.drain();
  EXPECT_EQ(fleet.submit(spec("late", pool, {"hal.dll"})), 0u);
  EXPECT_EQ(fleet.stats().submitted, 0u);
}

TEST(FleetService, StopDropsBacklog) {
  auto env = make_env(4);
  FleetService fleet({/*workers=*/1});
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

  FleetService fleet({/*workers=*/4});
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

// ---- report JSON --------------------------------------------------------------

TEST(SweepReportJson, SchemaSubstrings) {
  auto env = make_env(4);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[1], "hal.dll");
  FleetService fleet({/*workers=*/1});
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
