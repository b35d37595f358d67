#include "modchecker/scheduler.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace mc::core {

namespace {
struct DueScan {
  SimNanos due;
  std::size_t policy_index;
  // Min-heap by due time; ties broken by policy order for determinism.
  bool operator>(const DueScan& other) const {
    return due != other.due ? due > other.due
                            : policy_index > other.policy_index;
  }
};
}  // namespace

std::size_t ScheduleReport::new_alert_count() const {
  return static_cast<std::size_t>(
      std::count_if(alerts.begin(), alerts.end(),
                    [](const Alert& a) { return a.is_new; }));
}

ScanScheduler::ScanScheduler(const vmm::Hypervisor& hypervisor,
                             std::vector<vmm::DomainId> pool,
                             ModCheckerConfig config)
    : hypervisor_(&hypervisor),
      pool_(std::move(pool)),
      checker_(hypervisor, std::move(config)) {
  MC_CHECK(pool_.size() >= 2, "scheduler needs a pool of at least two VMs");
}

void ScanScheduler::add_policy(const ScanPolicy& policy) {
  MC_CHECK(policy.interval > 0, "scan interval must be positive");
  policies_.push_back(policy);
}

ScheduleReport ScanScheduler::run_until(SimNanos horizon) {
  ScheduleReport report;
  report.horizon = horizon;

  std::priority_queue<DueScan, std::vector<DueScan>, std::greater<>> queue;
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    queue.push({policies_[i].phase, i});
  }

  std::set<std::pair<std::string, vmm::DomainId>> known_alerts;
  // When the checker frees up: scans run serially in Dom0.
  SimNanos free_at = 0;

  while (!queue.empty() && queue.top().due < horizon) {
    const DueScan due_scan = queue.top();
    queue.pop();
    const ScanPolicy& policy = policies_[due_scan.policy_index];

    ScanRecord record;
    record.due = due_scan.due;
    record.started = std::max(due_scan.due, free_at);
    record.module = policy.module;

    const PoolScanReport scan = checker_.scan_pool(policy.module, pool_);
    record.finished = record.started + scan.wall_time;
    free_at = record.finished;
    report.busy_time += scan.wall_time;

    for (const auto& verdict : scan.verdicts) {
      if (verdict.clean || verdict.total == 0) {
        continue;
      }
      record.flagged.push_back(verdict.vm);
      Alert alert;
      alert.time = record.finished;
      alert.module = policy.module;
      alert.vm = verdict.vm;
      alert.is_new =
          known_alerts.insert({policy.module, verdict.vm}).second;
      report.alerts.push_back(alert);
    }
    report.scans.push_back(std::move(record));

    queue.push({due_scan.due + policy.interval, due_scan.policy_index});
  }
  return report;
}

std::string format_schedule_report(const ScheduleReport& report) {
  std::ostringstream os;
  os << "Scan schedule: " << report.scans.size() << " scan(s) over "
     << format_sim_nanos(report.horizon) << ", duty cycle "
     << static_cast<int>(report.duty_cycle() * 10000) / 100.0 << "%\n";
  for (const auto& scan : report.scans) {
    os << "  t=" << format_sim_nanos(scan.started) << "  " << scan.module;
    if (scan.flagged.empty()) {
      os << "  clean\n";
    } else {
      os << "  FLAGGED:";
      for (const auto vm : scan.flagged) {
        os << " Dom" << vm;
      }
      os << "\n";
    }
  }
  os << "alerts: " << report.alerts.size() << " total, "
     << report.new_alert_count() << " new\n";
  return os.str();
}

}  // namespace mc::core
