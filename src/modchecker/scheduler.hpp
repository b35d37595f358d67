// Continuous-monitoring scan scheduler.
//
// The paper positions ModChecker as a periodic, light-weight consistency
// check whose alarms trigger heavier analysis.  This module turns the
// one-shot checker into that service: per-module scan policies (interval +
// phase), a simulated timeline on which scans execute serially in Dom0
// (they share the privileged VM's CPU), alert deduplication, and a
// timeline report with per-scan costs.
#pragma once

#include <cstdint>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "modchecker/modchecker.hpp"

namespace mc::core {

struct ScanPolicy {
  std::string module;
  SimNanos interval = sim_ms(60000);  // simulated time between scans
  SimNanos phase = 0;                 // first scan due at `phase`
};

struct ScanRecord {
  SimNanos due = 0;       // when the scan was scheduled to start
  SimNanos started = 0;   // actual start (>= due if the queue was busy)
  SimNanos finished = 0;
  std::string module;
  std::vector<vmm::DomainId> flagged;  // VMs whose vote failed
};

struct Alert {
  SimNanos time = 0;
  std::string module;
  vmm::DomainId vm = 0;
  bool is_new = false;  // first time this (module, vm) pair fired
};

struct ScheduleReport {
  std::vector<ScanRecord> scans;
  std::vector<Alert> alerts;
  SimNanos horizon = 0;
  SimNanos busy_time = 0;  // total simulated time spent scanning

  double duty_cycle() const {
    return horizon == 0 ? 0.0
                        : static_cast<double>(busy_time) /
                              static_cast<double>(horizon);
  }
  std::size_t new_alert_count() const;
};

class ScanScheduler {
 public:
  ScanScheduler(const vmm::Hypervisor& hypervisor,
                std::vector<vmm::DomainId> pool,
                ModCheckerConfig config = {});

  void add_policy(const ScanPolicy& policy);

  /// Runs the schedule on the simulated timeline until `horizon`.
  /// Scans execute back-to-back on the one checker when due times
  /// collide; a scan due before the checker frees up starts late.
  ScheduleReport run_until(SimNanos horizon);

 private:
  const vmm::Hypervisor* hypervisor_;
  std::vector<vmm::DomainId> pool_;
  ModChecker checker_;
  std::vector<ScanPolicy> policies_;
};

std::string format_schedule_report(const ScheduleReport& report);

}  // namespace mc::core
