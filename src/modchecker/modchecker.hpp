// ModChecker orchestrator — ties Module-Searcher, Module-Parser and
// Integrity-Checker together over a pool of VMs (paper Fig. 1) and applies
// the majority vote of §III ("if the number of successes n are in majority
// from the total number of comparisons (i.e. n > (t-1)/2) ... the module
// has not been altered").
//
// Since the staged-pipeline refactor this class is a thin public facade:
// every entry point composes the stages of CheckPipeline (pipeline.hpp),
// which is the single implementation of the acquire → parse → normalize →
// compare → vote → report flow.  Only sampling (the peer draw of
// check_module_sampled) lives here — it is input selection, not checking.
//
// Two execution modes:
//   * sequential (worker_threads = 1) — the paper's prototype: VMs are
//     visited one after another; total runtime grows linearly with the
//     pool size (Fig. 7).
//   * parallel (worker_threads > 1) — the extension the paper proposes in
//     §V-C.1: per-VM extraction/parsing/comparison run as independent
//     tasks on a thread pool; the simulated wall time is the critical path.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "modchecker/pipeline.hpp"

namespace mc::core {

class ModChecker {
 public:
  explicit ModChecker(const vmm::Hypervisor& hypervisor,
                      ModCheckerConfig config = {});

  const ModCheckerConfig& config() const { return context_.config; }

  /// Checks `module_name` on `subject` against `others` (the other t-1
  /// VMs; the subject and repeated ids are dropped, so each peer votes
  /// once).  Throws NotFoundError if the module is not loaded on the
  /// subject itself.
  CheckReport check_module(vmm::DomainId subject,
                           const std::string& module_name,
                           const std::vector<vmm::DomainId>& others);

  /// Convenience: subject vs every other domain in the hypervisor.
  CheckReport check_module(vmm::DomainId subject,
                           const std::string& module_name);

  /// Checks the subject against a random sample of `sample_size` peers
  /// instead of all t-1.  The paper's sequential cost is linear in the
  /// pool size (Fig. 7); sampling caps it at O(sample_size) per check.
  /// The price is vote fragility for tiny samples — quantified by the A6
  /// ablation bench: with one infected peer in the pool, sample sizes 1-2
  /// can false-alarm a clean subject (the infected copy is the sample's
  /// majority), while sample sizes >= 3 match the full vote's behaviour.
  CheckReport check_module_sampled(vmm::DomainId subject,
                                   const std::string& module_name,
                                   std::size_t sample_size,
                                   std::uint64_t seed);

  /// Cross-checks the module on every pool VM (each takes the subject
  /// role) — the mode used to localize which VM is infected.
  PoolScanReport scan_pool(const std::string& module_name,
                           const std::vector<vmm::DomainId>& pool);

  /// Compares the *module lists* across the pool: a module loaded on some
  /// VMs but missing (or DKOM-hidden) on others is itself a discrepancy,
  /// independent of any hashing.
  ListComparisonReport compare_module_lists(
      const std::vector<vmm::DomainId>& pool);

  /// Item name reported when a module's copy cannot even be parsed (its
  /// PE magics/headers are corrupted) — a definite integrity violation.
  static constexpr const char* kUnparseableItem = core::kUnparseableItem;

  /// Cross-call session reuse counters (all zero when paper_faithful).
  vmi::SessionPoolStats session_pool_stats() const {
    return context_.session_pool.stats();
  }

  /// The underlying staged pipeline (advanced callers: custom drivers,
  /// stage-level instrumentation).
  CheckPipeline& pipeline() { return pipeline_; }

 private:
  /// Stage context: owns config, parser/checker and the session pool.
  CheckContext context_;
  CheckPipeline pipeline_;
};

}  // namespace mc::core
