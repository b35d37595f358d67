// Incremental pool scanner — write-watch-driven re-scanning.
//
// The paper's prototype copies every module from every VM on every check;
// Fig. 7 shows that page-wise extraction dominates the cost.  The vmm's
// WriteWatch subsystem (write_watch.hpp) is the simulated log-dirty
// facility that makes re-proving "nothing changed" cheap: the scanner
// registers a WatchSet over each cached module's frames through the VMI
// session, so a clean check is one O(1) dirty query — not a per-page
// version sweep — and a *dirty* module costs O(changed bytes): the dirty
// page indices map straight back to byte offsets of the cached owned
// image, which is patched in place and re-parsed instead of re-extracted.
//
// Implementation-wise this is a custom front half over the shared
// CheckPipeline: Acquire/Parse run through the pipeline's stages (the only
// Searcher/Parser owners), with the watch deciding whether the Acquire
// stage's extraction — full, partial, or none — is needed; Compare/Vote
// reuse the pipeline stages behind a persistent canonical-RVA pool (a
// changed copy re-normalizes once via CanonicalPool::update instead of
// re-comparing against every peer) with a generation-keyed pair cache
// under it for the ineligible fallback.
//
// Correctness invariant (tested): the incremental scanner's verdicts are
// identical to a fresh ModChecker scan in every state, because any write
// to a module's frames — the loader rebasing it, an attack patching it, a
// snapshot restore — marks the watch dirty and forces a refresh, and a
// refresh re-reads every dirty page before re-parsing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "modchecker/pipeline.hpp"

namespace mc::core {

/// Scanner-local cache effectiveness counters: produced per scanner and
/// consumed directly by experiments, so they stay a plain value type.
// mc-lint: allow(adhoc-stats)
struct IncrementalStats {
  std::uint64_t full_extractions = 0;
  std::uint64_t cache_reuses = 0;
  std::uint64_t invalidations = 0;  // cache present but dirty/base-changed
  /// Invalidations served by patching only the dirty pages of the cached
  /// image (the O(changed bytes) path) rather than a full re-extraction.
  std::uint64_t partial_refreshes = 0;
  /// Pages re-read across all partial refreshes.
  std::uint64_t frames_reread = 0;
  std::uint64_t comparisons_computed = 0;
  std::uint64_t comparisons_reused = 0;
};

class IncrementalScanner {
 public:
  IncrementalScanner(const vmm::Hypervisor& hypervisor,
                     ModCheckerConfig config = {});

  /// Drops the scanner's watch registrations (the hypervisor's WriteWatch
  /// outlives the scanner).
  ~IncrementalScanner();

  /// Same contract and output as ModChecker::scan_pool, but modules whose
  /// guest frames are untouched since the last scan are served from the
  /// cache (paying only the O(1) dirty query), and touched modules re-read
  /// only their dirty pages.
  PoolScanReport scan(const std::string& module_name,
                      const std::vector<vmm::DomainId>& pool);

  const IncrementalStats& stats() const { return stats_; }

 private:
  struct CacheEntry {
    bool found = false;
    /// The copy is present but did not parse (e.g. corrupted magic): it
    /// stays out of the canonical pool and every pair with it is a
    /// mismatch, exactly as in pool_scan.
    bool parse_failed = false;
    std::uint32_t base = 0;
    /// Backing frames in VA-page order: frames[i] backs page i of the
    /// image, so a dirty index maps directly to a byte offset.
    std::vector<std::uint32_t> frames;
    vmm::WriteWatch::WatchId watch = vmm::WriteWatch::kNoWatch;
    /// Bumped on every (re-)extraction/refresh and never reset, so a
    /// (vm, generation) pair names one content for the pair cache and the
    /// canonical pool even across an unload/reload.
    std::uint64_t generation = 0;
    /// Domain write generation observed at the start of the fetch that
    /// produced this entry.  If the domain's generation still matches, NO
    /// guest memory changed at all — the loader list, the module, anything
    /// — so the next fetch skips even the session open and list walk.
    std::uint64_t domain_generation = 0;
    /// True when the last refresh was partial; `last_changed_rvas` then
    /// holds the [lo, hi) image-relative byte ranges of the pages re-read
    /// in that refresh (the canonical update's item-reuse mask).
    bool last_refresh_partial = false;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> last_changed_rvas;
    /// Owned extraction the partial-refresh path patches in place.
    ModuleImage image;
    ParsedModule parsed;
  };

  /// A pairwise verdict stays valid while both sides' extractions do —
  /// the O(n^2) comparison cost of a pool scan then collapses to the
  /// pairs touching re-extracted modules.
  struct PairCacheEntry {
    std::uint64_t generation_a = 0;
    std::uint64_t generation_b = 0;
    bool all_match = false;
  };

  /// Persistent canonical-RVA state for one module name (fast path only),
  /// keyed on the *elected* reference VM and its generation.  The pool
  /// borrows the reference entry's ParsedModule, which stays
  /// address-stable in cache_ (std::map nodes) and content-stable while
  /// its generation holds; any reference change rebuilds the pool through
  /// CanonicalPool::elect (so an infected reference is voted out on the
  /// tick it changes), and a changed non-reference copy re-normalizes
  /// alone via update() — so a tick's normalize cost is O(changed
  /// copies), not O(t).
  struct CanonState {
    std::unique_ptr<CanonicalPool> pool;
    vmm::DomainId ref_vm = 0;
    std::uint64_t ref_generation = 0;
    std::map<vmm::DomainId, std::uint64_t> generations;
  };

  /// Extracts (or reuses / partially refreshes) one VM's copy via the
  /// pipeline's Acquire/Parse stages; charges simulated time to `times`.
  CacheEntry& fetch(vmm::DomainId vm, const std::string& module_name,
                    ComponentTimes& times);

  /// Full extraction into `entry` (registers a fresh watch first, so a
  /// write racing the copy is caught by the next scan).
  void extract_full(AcquireStage::Session& session,
                    const std::string& module_name, const ModuleInfo& info,
                    CacheEntry& entry);

  /// Re-reads the pages in `dirty_pages` into the cached image.  Returns
  /// false if a page's backing frame moved (the cached frame map is stale
  /// — caller falls back to extract_full).
  bool patch_dirty_pages(AcquireStage::Session& session, CacheEntry& entry,
                         const std::vector<std::uint32_t>& dirty_pages);

  /// Brings the module's canonical pool up to date with the fetched
  /// entries (re-election on reference change, update() per changed copy)
  /// and returns it; null when the fast path is disabled or nothing
  /// parsed.
  CanonicalPool* refresh_canonical(const std::string& module_name,
                                   const std::vector<vmm::DomainId>& pool,
                                   const std::vector<CacheEntry*>& entries,
                                   SimClock& clock);

  /// Stage context + pipeline: the scanner shares the session pool and
  /// parser/checker components with every other entry point.
  CheckContext context_;
  CheckPipeline pipeline_;
  /// Registry cells behind the IncrementalStats fields the fleet cares
  /// about ("incremental.*" on the context's registry).
  telemetry::Counter partial_refreshes_;
  telemetry::Counter frames_reread_;
  telemetry::Counter cache_reuses_;
  std::map<std::pair<vmm::DomainId, std::string>, CacheEntry> cache_;
  std::map<std::tuple<std::string, vmm::DomainId, vmm::DomainId>,
           PairCacheEntry>
      pair_cache_;
  std::map<std::string, CanonState> canon_;
  IncrementalStats stats_;
};

}  // namespace mc::core
