// Whole-catalog audit — the operator-facing sweep over every module of
// every VM (the paper's intended deployment: periodic light-weight
// consistency checks across the cloud).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "modchecker/modchecker.hpp"

namespace mc::core {

struct AuditFinding {
  std::string module;
  vmm::DomainId vm = 0;
  std::size_t successes = 0;
  std::size_t total = 0;
};

struct AuditReport {
  std::vector<std::string> modules;
  std::vector<vmm::DomainId> pool;
  /// Per-module pool scans, in `modules` order.
  std::vector<PoolScanReport> scans;
  /// Flattened (module, VM) pairs whose vote failed.
  std::vector<AuditFinding> findings;
  SimNanos total_wall = 0;
  ComponentTimes total_cpu;
};

/// Scans every module across the pool and aggregates the findings.
AuditReport audit_modules(const vmm::Hypervisor& hypervisor,
                          const std::vector<std::string>& modules,
                          const std::vector<vmm::DomainId>& pool,
                          const ModCheckerConfig& config = {});

std::string format_audit_report(const AuditReport& report);

/// Groups a pool by guest OS build (version id from each guest's debug
/// block).  ModChecker's assumption — same OS version across compared VMs
/// (§Abstract) — makes this the mandatory first step for mixed clouds:
/// cross-version module comparisons would flag everything.  `recognized`
/// holds only version ids a GuestProfile exists for; every other VM lands
/// in `unrecognized` with a FaultRecord saying why (kUnrecognizedBuild for
/// an unknown build id, kDebugBlockMissing / kDomainGone when
/// introspection itself failed) — one odd guest does not abort grouping
/// the rest of the cloud.
struct VersionGroups {
  std::map<std::uint32_t, std::vector<vmm::DomainId>> recognized;
  /// VMs excluded from every recognized group, in pool order.
  std::vector<vmm::DomainId> unrecognized;
  /// One record per excluded VM explaining the exclusion.
  std::vector<FaultRecord> faults;
};

VersionGroups group_pool_by_version(const vmm::Hypervisor& hypervisor,
                                    const std::vector<vmm::DomainId>& pool,
                                    const vmi::VmiCostModel& costs = {});

}  // namespace mc::core
