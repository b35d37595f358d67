// Incremental pool scanning: a write-watch-backed cache under the one
// pool-scan driver.  Each cached copy carries a WatchSet over its module's
// frames (vmm/write_watch.hpp), so a clean check is one O(1) dirty query
// and a dirty module costs O(dirty bytes): each dirty page is re-read and
// compared with the owned image in place, only differing bytes are copied
// in, and only a copy whose content changed is re-parsed (a same-value
// write keeps its generation, so nothing downstream redoes work).
// The loader list is cached the same way: one snapshot per domain, watched
// over every frame its walk read, so a tick whose writes missed the list
// finds each module without a guest read.  CheckPipeline::pool_scan
// takes the ScanCache and runs the same retry/quarantine, normalize,
// compare, vote and telemetry path as a fresh scan; the cache supplies the
// copies, a persistent canonical pool (a changed copy re-normalizes alone)
// and generation-keyed verdicts for the exact fallback pairs.  Cached
// verdicts equal a fresh scan's in every fault-free state (tested).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
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
  /// Invalidations served by patching only the dirty pages.
  std::uint64_t partial_refreshes = 0;
  /// Partial refreshes whose re-read bytes all matched the cached copy.
  std::uint64_t unchanged_refreshes = 0;
  std::uint64_t frames_reread = 0;  // pages re-read by partial refreshes
  std::uint64_t comparisons_computed = 0;
  std::uint64_t comparisons_reused = 0;
  /// Refreshes that walked the loader list, and those served by the
  /// domain's loader snapshot instead.
  std::uint64_t loader_walks = 0;
  std::uint64_t loader_reuses = 0;
};

/// One domain's loader list as last walked, with a WatchSet over every
/// frame the walk read (the list head, every entry, every name buffer)
/// and the page-table frames that map them.  While that watch is clean
/// and the same page directory is loaded, a new walk would read the same
/// bytes through the same translations, so a refresh looks its module up
/// here instead of walking (DESIGN §13.5).
struct LoaderSnapshot {
  /// What ModuleSearcher::try_find_module(module_name) returns on the
  /// current guest state: the entry, disengaged if it is not loaded, or
  /// the fault the lookup meets.  A clean watch under an unchanged CR3
  /// answers from the snapshot (one `watch_query`, no guest read); else
  /// the list is walked again
  /// (LoaderWalk) and the walk is kept, under a new watch, only if none
  /// of its reads faulted and the domain took no write between the walk's
  /// first read and the watch registration.  `walked` says which path
  /// answered.
  Fallible<std::optional<ModuleInfo>> find(const AcquireStage& acquire,
                                           AcquireStage::Session& session,
                                           vmm::WriteWatch& watches,
                                           const std::string& module_name,
                                           bool& walked);

  /// Forgets the list and its watch.
  void drop(vmm::WriteWatch& watches);

  LoaderWalk walk;
  vmm::WriteWatch::WatchId watch = vmm::WriteWatch::kNoWatch;
  /// The page directory the walk was translated under.
  std::uint64_t cr3 = 0;
};

/// One VM's cached copy of one module: the one owned copy of its image.
/// `parsed`'s items, and a canonical pool that elected this copy as its
/// reference, borrow `buffer` through `image.view`.  They stay valid until
/// the next full re-extraction, which re-parses before any reader runs; a
/// partial refresh patches `buffer` in place and bumps `generation` when
/// a byte changed.  Non-copyable, so no view can point into another
/// copy's buffer.
struct CachedCopy {
  /// What the last fetch did (ScanCache::account tallies it).
  enum class Outcome : std::uint8_t { kNone, kReused, kPartial, kFull };
  /// How the fetch found the module's loader entry (kNone: it did not
  /// look, the domain took no write).
  enum class Loader : std::uint8_t { kNone, kSnapshot, kWalked };
  struct Fetch {
    Outcome outcome = Outcome::kNone;
    Loader loader = Loader::kNone;
    bool invalidated = false;
    /// The fetch bumped `generation`: a full extraction, or a partial
    /// refresh that found at least one differing byte.
    bool content_changed = false;
    std::uint32_t frames_reread = 0;
  };

  CachedCopy() = default;
  CachedCopy(const CachedCopy&) = delete;
  CachedCopy& operator=(const CachedCopy&) = delete;
  CachedCopy(CachedCopy&&) = default;
  CachedCopy& operator=(CachedCopy&&) = default;

  /// True (a reuse) when the domain took no write at all since this copy
  /// was fetched: it is served without touching guest memory.
  bool reuse_if_current(std::uint64_t domain_write_generation) {
    const bool current = found && watch != vmm::WriteWatch::kNoWatch &&
                         domain_generation == domain_write_generation;
    last = {current ? Outcome::kReused : Outcome::kNone};
    return current;
  }

  /// One fetch attempt, run inside the driver's acquire retry loop: finds
  /// the module through the domain's loader snapshot, then reuses a clean
  /// copy, patches its dirty pages or re-extracts it (the only
  /// `pipeline.acquire.materializations`).  A dirty page is
  /// compared with the copy before it is patched, charged
  /// `compare_per_byte` per byte; a written page-table frame makes every
  /// page re-translate first, and a switched CR3 re-extracts (the watch
  /// names the old tables).  Returns whether the module is loaded.  A
  /// fault leaves the copy unusable, so the retry re-extracts it.
  Fallible<bool> refresh(const AcquireStage& acquire,
                         AcquireStage::Session& session,
                         LoaderSnapshot& loader, vmm::WriteWatch& watches,
                         const std::string& module_name,
                         std::uint64_t domain_write_generation,
                         SimNanos compare_per_byte);

  /// Forgets the copy and its watch; keeps `generation` and `last`.
  void drop(vmm::WriteWatch& watches);

  bool found = false;
  bool parse_failed = false;  // present but unparseable: a finding
  std::uint32_t base = 0;
  /// Backing frames in VA-page order: frames[i] backs page i of the image.
  /// The watch holds these first, then the page-table frames mapping them.
  std::vector<std::uint32_t> frames;
  vmm::WriteWatch::WatchId watch = vmm::WriteWatch::kNoWatch;
  /// The page directory `frames` and the watch were translated under.
  std::uint64_t cr3 = 0;
  /// Bumped on every refresh that changed the content, never reset:
  /// (vm, generation) names one content for pair verdicts and the
  /// canonical pool.
  std::uint64_t generation = 0;
  /// Domain write generation read before the fetch that produced the copy.
  std::uint64_t domain_generation = 0;
  /// Non-empty when the refresh that produced `generation` was partial:
  /// the [lo, hi) image offsets it changed, one differing run per page
  /// (the canonical update's mask).
  CanonicalPool::ByteRanges last_changed_rvas;
  /// The image's bytes (the partial refresh patches them in place) and a
  /// one-segment view over them: the cache's sanctioned copy.
  Bytes buffer;  // mc-lint: allow(hotpath-copy)
  ModuleImage image;
  ParsedModule parsed;
  Fetch last;
};

/// The cache state the pool-scan driver reads and updates.  Not
/// thread-safe: the owner serializes scans (the fleet's per-pool mutex).
class ScanCache {
 public:
  using VmPair = std::pair<vmm::DomainId, vmm::DomainId>;
  using GenerationPair = std::pair<std::uint64_t, std::uint64_t>;

  /// A fallback pair's verdict and the copy generations it holds for.
  struct PairVerdict {
    GenerationPair generations;
    bool all_match = false;
  };

  struct Module {
    /// The pair's verdict if both copies kept its generations; else null.
    const PairVerdict* verdict(const VmPair& vms,
                               const GenerationPair& generations) const {
      const auto it = pairs.find(vms);
      const bool held =
          it != pairs.end() && it->second.generations == generations;
      return held ? &it->second : nullptr;
    }

    /// Address-stable nodes: the canonical pool borrows the reference
    /// copy's ParsedModule across scans.
    std::map<vmm::DomainId, CachedCopy> copies;
    std::map<VmPair, PairVerdict> pairs;
    CanonicalState canon;
  };

  explicit ScanCache(const CheckContext& context) : context_(&context) {}
  ~ScanCache();  // drops every watch
  ScanCache(const ScanCache&) = delete;
  ScanCache& operator=(const ScanCache&) = delete;

  Module& module(const std::string& name) { return modules_[name]; }

  /// `vm`'s loader snapshot, shared by every module's copies on it.
  LoaderSnapshot& loader(vmm::DomainId vm) { return loaders_[vm]; }

  /// Tallies one copy's last fetch (orchestrating thread only).
  void account(const CachedCopy& copy);
  void account_pairs(std::size_t reused, std::size_t computed) {
    stats_.comparisons_reused += reused;
    stats_.comparisons_computed += computed;
  }

  const IncrementalStats& stats() const { return stats_; }

 private:
  const CheckContext* context_;
  std::map<std::string, Module> modules_;
  std::map<vmm::DomainId, LoaderSnapshot> loaders_;
  IncrementalStats stats_;
};

/// One context, one pipeline, one cache: scan() is pool_scan over the
/// cache, with ModChecker::scan_pool's contract and output.
class IncrementalScanner {
 public:
  IncrementalScanner(const vmm::Hypervisor& hypervisor,
                     ModCheckerConfig config = {})
      : context_(hypervisor, std::move(config)),
        pipeline_(context_),
        cache_(context_) {}

  PoolScanReport scan(const std::string& module_name,
                      const std::vector<vmm::DomainId>& pool) {
    return pipeline_.pool_scan(module_name, pool, &cache_);
  }

  const IncrementalStats& stats() const { return cache_.stats(); }

 private:
  CheckContext context_;
  CheckPipeline pipeline_;
  ScanCache cache_;
};

}  // namespace mc::core
