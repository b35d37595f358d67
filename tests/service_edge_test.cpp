// service/ edge cases the happy-path fleet tests never reach: a sink
// whose stream goes bad mid-write, submissions racing shutdown, and a
// sweep whose pool quarantines out from under it.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/environment.hpp"
#include "service/coordinator.hpp"
#include "vmm/fault_injection.hpp"

namespace {

using namespace mc;
using namespace mc::service;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

SweepReport minimal_report(SweepId id) {
  SweepReport r;
  r.id = id;
  r.name = "edge";
  return r;
}

// ---- JsonLinesSink write failure ----------------------------------------------

TEST(JsonLinesSinkEdge, WriteFailureIsCountedAndRecoveredFrom) {
  std::ostringstream os;
  JsonLinesSink sink(os);

  // First report lands while the stream is broken: the line is lost, the
  // failure is counted, and the sink must clear the state instead of
  // wedging every later report.
  os.setstate(std::ios::failbit);
  sink.on_sweep(minimal_report(1));
  EXPECT_EQ(sink.write_failures(), 1u);

  sink.on_sweep(minimal_report(2));
  EXPECT_EQ(sink.write_failures(), 1u);  // recovered — no new failure
  const std::string out = os.str();
  EXPECT_EQ(out.find("\"id\":1"), std::string::npos);  // dropped line
  EXPECT_NE(out.find("\"id\":2"), std::string::npos);  // retried stream

  sink.on_sweep(minimal_report(3));
  EXPECT_EQ(sink.write_failures(), 1u);
  EXPECT_NE(os.str().find("\"id\":3"), std::string::npos);
}

TEST(JsonLinesSinkEdge, FailingStreamNeverStopsTheFleet) {
  auto env = make_env(3);
  std::ostringstream os;
  os.setstate(std::ios::badbit);  // broken from the start
  auto sink = std::make_shared<JsonLinesSink>(os);

  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  fleet.add_sink(sink);
  SweepSpec spec;
  spec.name = "doomed-sink";
  spec.pool_index = pool;
  spec.modules = {"hal.dll"};
  fleet.start();
  ASSERT_NE(fleet.submit(spec), 0u);
  fleet.drain();

  EXPECT_EQ(fleet.stats().completed_runs, 1u);  // the sweep itself ran
  EXPECT_EQ(sink->write_failures(), 1u);
}

// ---- submit after close / drain -----------------------------------------------

TEST(SweepQueueEdge, PushAfterCloseIsRefused) {
  SweepQueue q;
  QueuedSweep run;
  run.id = 1;
  EXPECT_TRUE(q.push(run));
  q.close();
  QueuedSweep late;
  late.id = 2;
  EXPECT_FALSE(q.push(late));
  EXPECT_EQ(q.pending(), 1u);  // the backlog is kept, the late push is not
}

TEST(FleetEdge, SubmitAfterDrainReturnsZero) {
  auto env = make_env(3);
  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  fleet.start();
  fleet.drain();

  SweepSpec spec;
  spec.name = "too-late";
  spec.pool_index = pool;
  spec.modules = {"hal.dll"};
  EXPECT_EQ(fleet.submit(spec), 0u);
  EXPECT_EQ(fleet.stats().submitted, 0u);
}

// ---- fully quarantined pool ---------------------------------------------------

TEST(FleetEdge, FullyQuarantinedPoolExhaustsInsteadOfSpinning) {
  auto env = make_env(3);
  vmm::FaultProfile always;
  always.read_fault_rate = 1.0;
  for (const vmm::DomainId vm : env->guests()) {
    env->hypervisor().fault_injector().arm(vm, always);
  }

  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);
  SweepSpec spec;
  spec.name = "dead-pool";
  spec.pool_index = pool;
  spec.modules = {"hal.dll", "ntfs.sys", "http.sys"};
  fleet.start();
  ASSERT_NE(fleet.submit(spec), 0u);
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 1u);
  const SweepReport& report = reports[0];
  // The first module scan quarantines every VM; the remaining modules are
  // skipped rather than re-polling a dead pool.
  EXPECT_TRUE(report.pool_exhausted);
  ASSERT_EQ(report.scans.size(), 1u);
  EXPECT_EQ(report.quarantined.size(), env->guests().size());
  EXPECT_FALSE(report.cancelled);
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"pool_exhausted\":true"), std::string::npos);
  EXPECT_EQ(fleet.stats().exhausted_runs, 1u);
  EXPECT_EQ(fleet.stats().quarantine_events, env->guests().size());
}

TEST(FleetEdge, CancellingASweepOnAQuarantiningPoolStopsItMidRun) {
  auto env = make_env(4);
  env->hypervisor().fault_injector().arm(env->guests()[1],
                                         vmm::FaultProfile{1.0});

  ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<RingSink>();
  fleet.add_sink(ring);

  // Cancel from the module hook: the hook fires before the first module's
  // scan, the cancellation is observed at the next module boundary — the
  // run ends after exactly one (quarantining) scan, deterministically.
  std::atomic<bool> cancelled_once{false};
  ShardCoordinator* fleet_ptr = &fleet;
  fleet.set_module_hook([&cancelled_once, fleet_ptr](
                            SweepId id, std::size_t, const std::string&) {
    if (!cancelled_once.exchange(true)) {
      fleet_ptr->cancel(id);
    }
  });

  SweepSpec spec;
  spec.name = "cancel-me";
  spec.pool_index = pool;
  spec.modules = {"hal.dll", "ntfs.sys", "http.sys"};
  spec.repeat = 3;  // recurrences must die with the cancellation too
  spec.cadence = sim_ms(100);
  fleet.start();
  ASSERT_NE(fleet.submit(spec), 0u);
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 1u);  // no recurrence after cancel
  const SweepReport& report = reports[0];
  EXPECT_TRUE(report.cancelled);
  ASSERT_EQ(report.scans.size(), 1u);  // stopped at the module boundary
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], env->guests()[1]);
  EXPECT_EQ(fleet.stats().cancelled_runs, 1u);
  EXPECT_EQ(fleet.stats().completed_runs, 0u);
}

}  // namespace
