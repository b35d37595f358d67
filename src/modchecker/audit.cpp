#include "modchecker/audit.hpp"

#include <sstream>
#include <utility>

#include "guestos/profile.hpp"
#include "util/error.hpp"
#include "vmi/session.hpp"

namespace mc::core {

AuditReport audit_modules(const vmm::Hypervisor& hypervisor,
                          const std::vector<std::string>& modules,
                          const std::vector<vmm::DomainId>& pool,
                          const ModCheckerConfig& config) {
  AuditReport report;
  report.modules = modules;
  report.pool = pool;

  ModChecker checker(hypervisor, config);
  for (const auto& module : modules) {
    PoolScanReport scan = checker.scan_pool(module, pool);
    report.total_wall += scan.wall_time;
    report.total_cpu += scan.cpu_times;
    for (const auto& verdict : scan.verdicts) {
      if (!verdict.clean) {
        report.findings.push_back(
            {module, verdict.vm, verdict.successes, verdict.total});
      }
    }
    report.scans.push_back(std::move(scan));
  }
  return report;
}

std::string format_audit_report(const AuditReport& report) {
  std::ostringstream os;
  os << "Cloud audit: " << report.modules.size() << " module(s) x "
     << report.pool.size() << " VM(s)\n";

  os << "         module";
  for (const auto vm : report.pool) {
    os << "  Dom" << vm;
  }
  os << "\n";
  for (std::size_t m = 0; m < report.scans.size(); ++m) {
    char name[32];
    std::snprintf(name, sizeof name, "%15s", report.modules[m].c_str());
    os << name;
    for (const auto& verdict : report.scans[m].verdicts) {
      os << (verdict.clean ? "   ok " : " FLAG ");
    }
    os << "\n";
  }

  os << "findings: " << report.findings.size() << "\n";
  for (const auto& f : report.findings) {
    os << "  - " << f.module << " on Dom" << f.vm << " (" << f.successes
       << "/" << f.total << " matches)\n";
  }
  os << "simulated cost: wall " << format_sim_nanos(report.total_wall)
     << ", cpu " << format_sim_nanos(report.total_cpu.total()) << "\n";
  return os.str();
}

VersionGroups group_pool_by_version(const vmm::Hypervisor& hypervisor,
                                    const std::vector<vmm::DomainId>& pool,
                                    const vmi::VmiCostModel& costs) {
  VersionGroups out;
  for (const vmm::DomainId vm : pool) {
    SimClock clock;
    try {
      vmi::VmiSession session(hypervisor, vm, clock, costs);
      Fallible<std::uint32_t> version = session.try_guest_version();
      if (!version.ok()) {
        out.faults.push_back(std::move(version.fault()));
        out.unrecognized.push_back(vm);
        continue;
      }
      if (guestos::find_profile_by_version(version.value()) == nullptr) {
        FaultRecord fault;
        fault.code = FaultCode::kUnrecognizedBuild;
        fault.domain = vm;
        fault.stage = CheckStage::kAcquire;
        fault.detail = "no guest profile for version id " +
                       std::to_string(version.value());
        out.faults.push_back(std::move(fault));
        out.unrecognized.push_back(vm);
        continue;
      }
      out.recognized[version.value()].push_back(vm);
    } catch (const NotFoundError& e) {
      // Domain listed but gone by attach time.
      FaultRecord fault;
      fault.code = FaultCode::kDomainGone;
      fault.domain = vm;
      fault.stage = CheckStage::kAcquire;
      fault.detail = e.what();
      out.faults.push_back(std::move(fault));
      out.unrecognized.push_back(vm);
    }
  }
  return out;
}

}  // namespace mc::core
