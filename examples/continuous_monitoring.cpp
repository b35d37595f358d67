// Continuous monitoring — ModChecker as a long-running fleet service.
//
// The paper frames ModChecker as a periodic light-weight consistency check
// whose alarms trigger heavier analysis (§VI).  This example runs that
// deployment through the fleet service (service/coordinator.hpp): one
// priority queue feeding two workers.
//
//   * two pools carved from one cloud (critical front-line VMs vs. the
//     long tail), swept in parallel by the two workers,
//   * a high-priority recurring sweep of critical modules and a slower
//     background sweep of the long tail,
//   * an infection planted before monitoring starts, surfaced as sweep
//     findings by every run that scans the infected pool,
//   * cancellation (an operator retracts a sweep before it runs) and
//     graceful drain,
//   * pluggable report sinks: an in-memory ring for the checks below, a
//     JSON-lines stream as the SIEM integration surface, and a Chrome
//     trace sink — load the emitted JSON in chrome://tracing or
//     https://ui.perfetto.dev to see every sweep, acquire, parse and
//     compare span on a per-pool timeline.
//
// Build & run:  ./build/examples/continuous_monitoring
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "service/coordinator.hpp"
#include "telemetry/trace.hpp"

int main() {
  using namespace mc;

  cloud::CloudConfig config;
  config.guest_count = 12;
  cloud::CloudEnvironment env(config);

  // Pool 0: the six front-line guests; pool 1: the long tail.
  const std::vector<vmm::DomainId> frontline(env.guests().begin(),
                                             env.guests().begin() + 6);
  const std::vector<vmm::DomainId> longtail(env.guests().begin() + 6,
                                            env.guests().end());

  // A rootkit lands on a front-line guest before monitoring starts.
  const vmm::DomainId infected = frontline[3];
  attacks::InlineHookAttack{}.apply(env, infected, "hal.dll");
  std::printf("[attacker] inline hook planted on Dom%u's hal.dll\n\n",
              infected);

  telemetry::TraceRecorder tracer;
  service::CoordinatorConfig fleet_cfg;
  fleet_cfg.workers_per_shard = 2;
  fleet_cfg.tracer = &tracer;  // every pool pipeline shares this recorder
  service::ShardCoordinator fleet(fleet_cfg);
  const std::size_t pool_critical = fleet.add_pool(env.hypervisor(),
                                                   frontline);
  const std::size_t pool_tail = fleet.add_pool(env.hypervisor(), longtail);

  auto ring = std::make_shared<service::RingSink>();
  std::ostringstream siem;  // stands in for a SIEM/alerting socket
  auto json = std::make_shared<service::JsonLinesSink>(siem);
  std::ostringstream trace_stream;  // write to a .json file in production
  auto trace = std::make_shared<service::ChromeTraceSink>(trace_stream,
                                                          tracer);
  fleet.add_sink(ring);
  fleet.add_sink(json);
  fleet.add_sink(trace);

  // Critical modules every simulated second, three rounds; the long tail
  // once, at lower priority.
  service::SweepSpec critical;
  critical.name = "critical";
  critical.pool_index = pool_critical;
  critical.modules = {"hal.dll", "ntoskrnl.exe"};
  critical.priority = 10;
  critical.repeat = 3;
  critical.cadence = sim_ms(1000);
  fleet.submit(critical);

  service::SweepSpec tail;
  tail.name = "long-tail";
  tail.pool_index = pool_tail;
  tail.modules = {"tcpip.sys", "http.sys", "ntfs.sys"};
  tail.priority = 0;
  fleet.submit(tail);

  // An operator queues a third sweep, then retracts it before it runs.
  service::SweepSpec retracted;
  retracted.name = "retracted";
  retracted.pool_index = pool_tail;
  retracted.modules = {"ndis.sys"};
  const service::SweepId retracted_id = fleet.submit(retracted);
  fleet.cancel(retracted_id);

  fleet.start();
  fleet.drain();  // run the backlog to completion, then stop the workers

  const auto reports = ring->snapshot();
  const auto stats = fleet.stats();

  std::size_t hal_findings = 0;
  std::size_t tail_findings = 0;
  SimNanos total_wall = 0;
  for (const auto& report : reports) {
    std::printf("sweep '%s' run %zu: %zu module scans, %zu findings, "
                "%llu us simulated wall\n",
                report.name.c_str(), report.run_index, report.scans.size(),
                report.findings.size(),
                static_cast<unsigned long long>(report.wall_time / 1000));
    total_wall += report.wall_time;
    for (const auto& finding : report.findings) {
      std::printf("  ALERT %s on Dom%u (vote %zu/%zu)\n",
                  finding.module.c_str(), finding.vm, finding.successes,
                  finding.total);
      if (report.name == "critical" && finding.module == "hal.dll" &&
          finding.vm == infected) {
        ++hal_findings;
      }
      if (report.name == "long-tail") {
        ++tail_findings;
      }
    }
  }
  const std::string feed = siem.str();
  std::printf("\nSIEM feed: %zu JSON lines\n",
              static_cast<std::size_t>(
                  std::count(feed.begin(), feed.end(), '\n')));
  trace->finish();
  std::printf("Chrome trace: %llu events, %zu bytes "
              "(open in chrome://tracing / Perfetto)\n",
              static_cast<unsigned long long>(trace->events_written()),
              trace_stream.str().size());

  // Every critical run must flag exactly the infected guest; the clean
  // long-tail pool must stay silent; the retracted sweep must never run.
  const bool ok = hal_findings == 3 && tail_findings == 0 &&
                  stats.completed_runs == 4 && stats.cancelled_runs == 0 &&
                  stats.dropped_pending == 1 && reports.size() == 4 &&
                  trace->events_written() > 0;
  std::printf("monitoring outcome: %s (runs %llu, dropped %llu, "
              "%llu us total simulated wall)\n",
              ok ? "OK" : "UNEXPECTED",
              static_cast<unsigned long long>(stats.completed_runs),
              static_cast<unsigned long long>(stats.dropped_pending),
              static_cast<unsigned long long>(total_wall / 1000));
  return ok ? 0 : 1;
}
