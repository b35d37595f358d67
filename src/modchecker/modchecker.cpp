#include "modchecker/modchecker.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mc::core {

ModChecker::ModChecker(const vmm::Hypervisor& hypervisor,
                       ModCheckerConfig config)
    : context_(hypervisor, std::move(config)), pipeline_(context_) {}

CheckReport ModChecker::check_module(
    vmm::DomainId subject, const std::string& module_name,
    const std::vector<vmm::DomainId>& others) {
  return pipeline_.check(subject, module_name, others);
}

CheckReport ModChecker::check_module(vmm::DomainId subject,
                                     const std::string& module_name) {
  // The electorate drops the subject from its own peers.
  return pipeline_.check(subject, module_name,
                         context_.hypervisor->domain_ids());
}

CheckReport ModChecker::check_module_sampled(vmm::DomainId subject,
                                             const std::string& module_name,
                                             std::size_t sample_size,
                                             std::uint64_t seed) {
  std::vector<vmm::DomainId> others;
  for (const vmm::DomainId id : context_.hypervisor->domain_ids()) {
    if (id != subject) {
      others.push_back(id);
    }
  }
  MC_CHECK(sample_size >= 1, "sample size must be at least 1");

  // Seeded Fisher-Yates prefix shuffle to draw the sample.
  Xoshiro256 rng(seed);
  const std::size_t k = std::min(sample_size, others.size());
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.below(others.size() - i);
    std::swap(others[i], others[j]);
  }
  others.resize(k);
  return pipeline_.check(subject, module_name, others);
}

PoolScanReport ModChecker::scan_pool(const std::string& module_name,
                                     const std::vector<vmm::DomainId>& pool) {
  return pipeline_.pool_scan(module_name, pool);
}

ListComparisonReport ModChecker::compare_module_lists(
    const std::vector<vmm::DomainId>& pool) {
  return pipeline_.compare_lists(pool);
}

}  // namespace mc::core
