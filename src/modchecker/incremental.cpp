#include "modchecker/incremental.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "vmm/phys_mem.hpp"
#include "vmm/write_watch.hpp"

namespace mc::core {

IncrementalScanner::IncrementalScanner(const vmm::Hypervisor& hypervisor,
                                       ModCheckerConfig config)
    : context_(hypervisor, std::move(config)),
      pipeline_(context_),
      partial_refreshes_(context_.metrics->counter(
          "incremental.partial_refreshes")),
      frames_reread_(context_.metrics->counter("incremental.frames_reread")),
      cache_reuses_(context_.metrics->counter("incremental.cache_reuses")) {}

IncrementalScanner::~IncrementalScanner() {
  vmm::WriteWatch& watch = context_.hypervisor->write_watch();
  for (const auto& [key, entry] : cache_) {
    if (entry.watch != vmm::WriteWatch::kNoWatch) {
      watch.unregister(entry.watch);
    }
  }
}

void IncrementalScanner::extract_full(AcquireStage::Session& session,
                                      const std::string& module_name,
                                      const ModuleInfo& info,
                                      CacheEntry& entry) {
  vmi::VmiSession& s = session.session();
  if (entry.watch != vmm::WriteWatch::kNoWatch) {
    s.unwatch(entry.watch);
    entry.watch = vmm::WriteWatch::kNoWatch;
  }
  // Register the watch BEFORE copying: a write racing the extraction marks
  // the fresh watch dirty, so the next scan conservatively refreshes —
  // registering after the copy would let that write slip by unobserved.
  Fallible<vmm::WriteWatch::WatchId> watch =
      s.try_watch_range(info.base, info.size_of_image);
  if (!watch.ok()) {
    // The scanner keeps the legacy throwing contract (see scan()).
    throw GuestFaultError(std::move(watch.fault()));
  }
  entry.watch = watch.value();
  entry.frames = context_.hypervisor->write_watch().watched_frames(entry.watch);

  const AcquireStage& acquire = pipeline_.acquire();
  auto image = acquire.extract_module(session, module_name);
  MC_CHECK(image.has_value(), "module vanished between list walk and copy");
  entry.found = true;
  entry.base = info.base;
  ++entry.generation;
  entry.image = std::move(*image);
}

bool IncrementalScanner::patch_dirty_pages(
    AcquireStage::Session& session, CacheEntry& entry,
    const std::vector<std::uint32_t>& dirty_pages) {
  vmi::VmiSession& s = session.session();
  const std::uint32_t base = entry.base;
  const std::uint32_t page_base = base & ~(vmm::kFrameSize - 1);
  const auto image_size = static_cast<std::uint32_t>(entry.image.bytes.size());
  entry.last_changed_rvas.clear();
  for (const std::uint32_t page : dirty_pages) {
    if (page >= entry.frames.size()) {
      return false;  // registration no longer matches the cached layout
    }
    const std::uint32_t page_va = page_base + page * vmm::kFrameSize;
    // Re-translate the dirty page: a bulk invalidate (snapshot restore)
    // may have replaced the page tables, leaving the same base mapped to
    // different frames.  A moved frame means the cached frame map — and
    // the watch registered over it — is stale; fall back to a full
    // extraction + re-registration.
    const std::uint64_t pa = s.translate_kv2p(page_va);
    if (static_cast<std::uint32_t>(pa >> vmm::kFrameShift) !=
        entry.frames[page]) {
      return false;
    }
    // Patch only the slice of this page that lies inside the image.
    const std::uint32_t lo = std::max(page_va, base);
    const std::uint32_t hi =
        std::min(page_va + vmm::kFrameSize, base + image_size);
    s.read_va(lo, MutableByteView(entry.image.bytes.data(), image_size)
                      .subspan(lo - base, hi - lo));
    entry.last_changed_rvas.emplace_back(lo - base, hi - base);
    ++stats_.frames_reread;
    frames_reread_.inc();
  }
  return true;
}

CanonicalPool* IncrementalScanner::refresh_canonical(
    const std::string& module_name, const std::vector<vmm::DomainId>& pool,
    const std::vector<CacheEntry*>& entries, SimClock& clock) {
  if (!pipeline_.normalize().enabled()) {
    return nullptr;
  }
  const auto usable = [&](std::size_t i) {
    return entries[i]->found && !entries[i]->parse_failed;
  };
  CanonState& state = canon_[module_name];
  std::size_t ref_index = pool.size();
  if (state.pool) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pool[i] == state.ref_vm && usable(i)) {
        ref_index = i;
        break;
      }
    }
  }

  if (ref_index == pool.size() ||
      state.ref_generation != entries[ref_index]->generation) {
    // No pool yet, or the borrowed reference changed content or left the
    // pool: O(t) rebuild with a fresh election — the cost a fresh scan
    // pays every tick.
    std::vector<const ParsedModule*> copies;
    copies.reserve(pool.size());
    state.generations.clear();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (usable(i)) {
        copies.push_back(&entries[i]->parsed);
        state.generations[pool[i]] = entries[i]->generation;
      }
    }
    if (copies.empty()) {
      canon_.erase(module_name);
      return nullptr;
    }
    state.pool = std::make_unique<CanonicalPool>(CanonicalPool::elect(
        copies, clock, context_.config.algorithm, context_.config.host_costs,
        context_.metrics, context_.policy()));
    state.ref_vm = state.pool->reference_domain();
    state.ref_generation = state.generations.at(state.ref_vm);
    return state.pool.get();
  }

  // Stable reference: only changed copies re-normalize (O(changed)).
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (i == ref_index || !usable(i)) {
      continue;
    }
    const auto it = state.generations.find(pool[i]);
    const std::uint64_t have =
        it == state.generations.end() ? 0 : it->second;
    if (have != entries[i]->generation) {
      // The dirty-range mask is only a faithful delta when the pool saw
      // the generation immediately before a single partial refresh;
      // anything else (full re-extraction, missed generations) updates
      // every item.
      const auto* changed = entries[i]->last_refresh_partial &&
                                    have + 1 == entries[i]->generation
                                ? &entries[i]->last_changed_rvas
                                : nullptr;
      state.pool->update(entries[i]->parsed, clock, changed);
      state.generations[pool[i]] = entries[i]->generation;
    }
  }
  return state.pool.get();
}

IncrementalScanner::CacheEntry& IncrementalScanner::fetch(
    vmm::DomainId vm, const std::string& module_name, ComponentTimes& times) {
  CacheEntry& entry = cache_[{vm, module_name}];
  vmm::WriteWatch& watch = context_.hypervisor->write_watch();

  // Domain-generation shortcut: the per-domain write generation advances
  // on EVERY guest write — a module unload rewrites the loader list, a
  // rebase/reload rewrites list + image, an attack patches the image, a
  // snapshot restore bulk-invalidates — so an unchanged generation proves
  // the entire cached view (list walk included) is still current.  Skip
  // the session open and list walk outright; one O(1) generation query
  // replaces them.  The generation is read BEFORE any session work below
  // and stored only on success, so a write racing a fetch leaves the
  // stored value behind the live one and the next scan re-checks.
  const std::uint64_t domain_generation = watch.domain_write_generation(vm);
  if (entry.found && entry.watch != vmm::WriteWatch::kNoWatch &&
      entry.domain_generation == domain_generation) {
    ++stats_.cache_reuses;
    cache_reuses_.inc();
    times.searcher += context_.config.vmi_costs.watch_query;
    return entry;
  }

  SimClock searcher_clock;
  const AcquireStage& acquire = pipeline_.acquire();
  AcquireStage::Session session = acquire.open(vm, searcher_clock);

  // The list walk is always needed (cheap relative to a copy): the module
  // could have been unloaded or rebased since the last scan.
  const auto info = acquire.find_module(session, module_name);
  if (!info) {
    if (entry.watch != vmm::WriteWatch::kNoWatch) {
      watch.unregister(entry.watch);
    }
    const std::uint64_t generation = entry.generation;
    entry = CacheEntry{};  // drop any stale cache
    entry.generation = generation;
    times.searcher += searcher_clock.now();
    return entry;
  }

  // O(1) watch query against the cached extraction; dirty entries retry
  // the O(changed bytes) partial refresh before falling back to a full
  // re-extraction.
  bool need_full = true;
  if (entry.found && entry.base == info->base &&
      entry.image.bytes.size() == info->size_of_image &&
      entry.watch != vmm::WriteWatch::kNoWatch) {
    if (!session.session().watch_dirty(entry.watch)) {
      ++stats_.cache_reuses;
      cache_reuses_.inc();
      // The module's frames are clean even though the domain generation
      // moved (writes elsewhere); re-anchor the shortcut at the value read
      // before this fetch's session work.
      entry.domain_generation = domain_generation;
      times.searcher += searcher_clock.now();
      return entry;
    }
    ++stats_.invalidations;
    const std::vector<std::uint32_t> dirty =
        session.session().watch_drain(entry.watch);
    if (patch_dirty_pages(session, entry, dirty)) {
      ++entry.generation;
      ++stats_.partial_refreshes;
      partial_refreshes_.inc();
      entry.last_refresh_partial = true;
      need_full = false;
    }
  } else if (entry.found) {
    ++stats_.invalidations;  // rebased/resized — cache unusable
  }

  if (need_full) {
    ++stats_.full_extractions;
    extract_full(session, module_name, *info, entry);
    entry.last_refresh_partial = false;
    entry.last_changed_rvas.clear();
  }
  entry.domain_generation = domain_generation;
  times.searcher += searcher_clock.now();

  // Tolerant parse, as in pool_scan: an unparseable copy is a finding
  // (MODULE_UNPARSEABLE mismatches in scan()), not an exception.
  Extraction ex;
  pipeline_.parse().parse(entry.image, ex);
  entry.parse_failed = ex.parse_failed;
  entry.parsed = std::move(ex.parsed);
  times.parser += ex.times.parser;
  return entry;
}

PoolScanReport IncrementalScanner::scan(
    const std::string& module_name, const std::vector<vmm::DomainId>& pool) {
  PoolScanReport report;
  report.module_name = module_name;

  std::vector<CacheEntry*> entries;
  entries.reserve(pool.size());
  for (const vmm::DomainId vm : pool) {
    ComponentTimes times;
    entries.push_back(&fetch(vm, module_name, times));
    report.cpu_times += times;
    report.wall_time += times.total();
  }

  std::vector<PoolVmVerdict> verdicts(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    verdicts[i].vm = pool[i];
    // The incremental front half keeps the legacy throwing contract (a
    // guest fault unwinds the scan), so every VM that reaches this point
    // answered: full quorum by construction.
    verdicts[i].peers_total = pool.empty() ? 0 : pool.size() - 1;
    verdicts[i].peers_answered = verdicts[i].peers_total;
  }
  SimClock checker_clock;
  checker_clock.set_slowdown(context_.hypervisor->dom0_slowdown());
  // Canonical fast path over the persistent pool: a changed copy pays one
  // normalization (inside refresh_canonical) instead of a full pairwise
  // comparison against every peer, so a dirty tick's checker cost is
  // O(changed copies), not O(changed copies * t).  Ineligible copies drop
  // their pairs to the exact pairwise fallback, verdict-identical to the
  // slow path — the same contract pool_scan's fast path keeps.
  CanonicalPool* canon =
      refresh_canonical(module_name, pool, entries, checker_clock);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!entries[i]->found) {
      continue;
    }
    for (std::size_t j = i + 1; j < pool.size(); ++j) {
      if (!entries[j]->found) {
        continue;
      }
      ++verdicts[i].total;
      ++verdicts[j].total;
      if (entries[i]->parse_failed || entries[j]->parse_failed) {
        continue;  // an unparseable copy never matches anything
      }

      bool all_match;
      if (canon != nullptr && canon->eligible(pool[i]) &&
          canon->eligible(pool[j])) {
        ++report.fastpath_pairs;
        checker_clock.charge(context_.config.host_costs.digest_pair_fixed);
        all_match = canon->digests(pool[i]) == canon->digests(pool[j]);
      } else {
        ++report.fallback_pairs;
        PairCacheEntry& pair =
            pair_cache_[{module_name, pool[i], pool[j]}];
        if (pair.generation_a == entries[i]->generation &&
            pair.generation_b == entries[j]->generation &&
            pair.generation_a != 0) {
          // Neither side changed since this pair was last compared.
          ++stats_.comparisons_reused;
          all_match = pair.all_match;
        } else {
          ++stats_.comparisons_computed;
          const PairComparison cmp = pipeline_.compare().compare(
              entries[i]->parsed, entries[j]->parsed, checker_clock);
          all_match = cmp.all_match;
          pair = {entries[i]->generation, entries[j]->generation, all_match};
        }
      }
      if (all_match) {
        ++verdicts[i].successes;
        ++verdicts[j].successes;
      }
    }
  }
  report.cpu_times.checker += checker_clock.now();
  report.wall_time += checker_clock.now();

  pipeline_.vote().finalize(verdicts);
  report.verdicts = std::move(verdicts);
  return report;
}

}  // namespace mc::core
