#include "modchecker/incremental.hpp"

#include <algorithm>

#include "guestos/winlike.hpp"
#include "util/simd.hpp"
#include "vmm/phys_mem.hpp"
#include "vmm/write_watch.hpp"

namespace mc::core {

namespace {

/// One past the last index in [from, n) at which `a` and `b` differ, or
/// `from` when they agree there: equal 64-byte blocks are skipped from the
/// back with the word-wise compare, the last differing block bytewise.
std::size_t mismatch_end(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t from, std::size_t n) {
  constexpr std::size_t kBlock = 64;
  std::size_t end = n;
  while (end - from > kBlock &&
         simd::mismatch(a + end - kBlock, b + end - kBlock, kBlock, 0) ==
             kBlock) {
    end -= kBlock;
  }
  while (end > from && a[end - 1] == b[end - 1]) {
    --end;
  }
  return end;
}

/// Re-reads the `dirty` pages and compares each with the cached image in
/// place (charged `compare_per_byte` per compared byte).  Only the
/// differing run of a page, first to last mismatching byte, is copied in
/// and appended to `changed`, so a same-value rewrite changes nothing.
/// Indices past the page count name page-table frames: when one is dirty,
/// every page re-translates (under revalidated session translations)
/// before any is read.  False if a page's backing frame moved (a remap,
/// or a snapshot restore that replaced the page tables): the frame map
/// and its watch are stale, so the copy must be re-extracted.
Fallible<bool> patch_dirty_pages(vmi::VmiSession& s, CachedCopy& copy,
                                 const std::vector<std::uint32_t>& dirty,
                                 SimNanos compare_per_byte,
                                 CanonicalPool::ByteRanges& changed) {
  const std::uint32_t page_base = copy.base & ~(vmm::kFrameSize - 1);
  const auto image_size = static_cast<std::uint32_t>(copy.buffer.size());
  const std::size_t pages = copy.frames.size();
  if (!dirty.empty() && dirty.back() >= pages) {  // ascending: tables last
    s.revalidate_translations();
    for (std::uint32_t page = 0; page < pages; ++page) {
      Fallible<std::uint64_t> pa =
          s.try_translate_kv2p(page_base + page * vmm::kFrameSize);
      if (!pa.ok()) {
        return std::move(pa.fault());
      }
      if (static_cast<std::uint32_t>(pa.value() >> vmm::kFrameShift) !=
          copy.frames[page]) {
        return false;
      }
    }
  }
  for (const std::uint32_t page : dirty) {
    if (page >= pages) {
      break;  // the page-table frames, handled above
    }
    // Only the slice of this page that lies inside the image counts.
    const std::uint32_t page_va = page_base + page * vmm::kFrameSize;
    const std::uint32_t lo = std::max(page_va, copy.base);
    const std::uint32_t hi =
        std::min(page_va + vmm::kFrameSize, copy.base + image_size);
    Fallible<std::optional<ByteView>> read =
        s.try_read_frame(lo, hi - lo, copy.frames[page]);
    if (!read.ok()) {
      return std::move(read.fault());
    }
    if (!read.value()) {
      return false;
    }
    const ByteView fresh = *read.value();
    s.clock().charge(compare_per_byte * fresh.size());
    ++copy.last.frames_reread;
    std::uint8_t* cached = copy.buffer.data() + (lo - copy.base);
    const std::size_t first =
        simd::mismatch(fresh.data(), cached, fresh.size(), 0);
    if (first != fresh.size()) {
      const std::size_t end =
          mismatch_end(fresh.data(), cached, first, fresh.size());
      copy_bytes(MutableByteView(cached + first, end - first),
                 fresh.subspan(first, end - first));
      const std::uint32_t rva = lo - copy.base;
      changed.emplace_back(rva + static_cast<std::uint32_t>(first),
                           rva + static_cast<std::uint32_t>(end));
    }
  }
  return true;
}

}  // namespace

Fallible<std::optional<ModuleInfo>> LoaderSnapshot::find(
    const AcquireStage& acquire, AcquireStage::Session& session,
    vmm::WriteWatch& watches, const std::string& module_name, bool& walked) {
  vmi::VmiSession& s = session.session();
  const std::uint64_t loaded_cr3 = s.cr3();
  walked = watch == vmm::WriteWatch::kNoWatch || cr3 != loaded_cr3 ||
           s.watch_dirty(watch);
  if (!walked) {
    return walk.find(module_name);
  }
  drop(watches);
  // A dirty page-table frame means the walk must not reuse a translation.
  s.revalidate_translations();
  const std::uint64_t generation =
      watches.domain_write_generation(s.domain_id());
  std::vector<vmi::VmiSession::TouchedPage> touched;
  s.record_touched(&touched);
  LoaderWalk fresh = acquire.walk_loader(session);
  s.record_touched(nullptr);
  Fallible<std::optional<ModuleInfo>> found = fresh.find(module_name);
  if (!fresh.clean()) {
    // A faulted read may be transient: answer from this walk, keep none.
    return found;
  }
  const vmm::WriteWatch::WatchId registered = s.watch_pages(touched);
  if (watches.domain_write_generation(s.domain_id()) == generation) {
    watch = registered;
    walk = std::move(fresh);
    cr3 = loaded_cr3;
  } else {
    // A write landed between the walk and the registration, possibly on a
    // frame the walk had already read: serve this walk, do not keep it.
    watches.unregister(registered);
  }
  return found;
}

void LoaderSnapshot::drop(vmm::WriteWatch& watches) {
  if (watch != vmm::WriteWatch::kNoWatch) {
    watches.unregister(watch);
  }
  watch = vmm::WriteWatch::kNoWatch;
  walk = {};
}

Fallible<bool> CachedCopy::refresh(const AcquireStage& acquire,
                                   AcquireStage::Session& session,
                                   LoaderSnapshot& loader,
                                   vmm::WriteWatch& watches,
                                   const std::string& module_name,
                                   std::uint64_t domain_write_generation,
                                   SimNanos compare_per_byte) {
  last = {};
  vmi::VmiSession& s = session.session();

  // The module may have been unloaded or rebased since the last scan; the
  // loader snapshot answers that without a walk while the list is unwritten.
  bool walked = false;
  Fallible<std::optional<ModuleInfo>> listed =
      loader.find(acquire, session, watches, module_name, walked);
  last.loader = walked ? Loader::kWalked : Loader::kSnapshot;
  if (!listed.ok()) {
    return std::move(listed.fault());
  }
  if (!listed.value()) {
    drop(watches);
    return false;
  }
  const ModuleInfo& info = *listed.value();

  // O(1) watch query; a dirty copy tries the patch before re-extracting.
  // Under another page directory the frames may differ with no watched
  // frame written, and the watch names the old tables: re-extract.
  const std::uint64_t loaded_cr3 = s.cr3();
  bool need_full = true;
  if (found && base == info.base &&
      buffer.size() == info.size_of_image &&
      watch != vmm::WriteWatch::kNoWatch && cr3 == loaded_cr3) {
    if (!s.watch_dirty(watch)) {
      last.outcome = Outcome::kReused;  // writes landed elsewhere
      domain_generation = domain_write_generation;
      return true;
    }
    last.invalidated = true;
    const std::vector<std::uint32_t> dirty = s.watch_drain(watch);
    // The drain consumed the dirty set: until the patch lands, only a full
    // re-extraction may serve this copy (a fault below leaves it so).
    found = false;
    CanonicalPool::ByteRanges changed;
    Fallible<bool> patched =
        patch_dirty_pages(s, *this, dirty, compare_per_byte, changed);
    if (!patched.ok()) {
      return std::move(patched.fault());
    }
    if (patched.value()) {
      last.outcome = Outcome::kPartial;
      need_full = false;
      // Equal bytes are no change: the generation, and with it the parse,
      // canonical entry and pair verdicts keyed by it, still holds.
      if (!changed.empty()) {
        ++generation;
        last_changed_rvas = std::move(changed);
        last.content_changed = true;
      }
    }
  } else if (found) {
    last.invalidated = true;  // rebased, resized or tables switched
  }

  if (need_full) {
    drop(watches);
    // Register the watch BEFORE copying: a write racing the extraction
    // marks the fresh watch dirty, so the next scan refreshes again.
    Fallible<vmm::WriteWatch::WatchId> registered =
        s.try_watch_range(info.base, info.size_of_image);
    if (!registered.ok()) {
      return std::move(registered.fault());
    }
    watch = registered.value();
    cr3 = loaded_cr3;
    frames = watches.watched_frames(watch);
    const std::uint32_t first_page = info.base >> vmm::kFrameShift;
    const std::uint64_t end = std::uint64_t{info.base} + info.size_of_image;
    frames.resize(info.size_of_image == 0
                      ? 0
                      : static_cast<std::size_t>(
                            ((end - 1) >> vmm::kFrameShift) - first_page + 1));
    // The one owned copy of this module, read straight into its buffer;
    // the parse this generation forces runs before any reader (DESIGN
    // §11.1).
    acquire.context().pm.materializations.inc();
    Fallible<Bytes> copy =
        s.try_read_region(info.base, info.size_of_image);
    if (!copy.ok()) {
      return std::move(copy.fault());
    }
    base = info.base;
    ++generation;
    buffer = std::move(copy.value());
    image = {s.domain_id(), info.name, info.base, ByteView(buffer)};
    last.outcome = Outcome::kFull;
    last.content_changed = true;
  }
  found = true;
  domain_generation = domain_write_generation;
  return true;
}

void CachedCopy::drop(vmm::WriteWatch& watches) {
  if (watch != vmm::WriteWatch::kNoWatch) {
    watches.unregister(watch);
  }
  CachedCopy empty;
  empty.generation = generation;
  empty.last = last;
  *this = std::move(empty);
}

ScanCache::~ScanCache() {
  vmm::WriteWatch& watches = context_->hypervisor->write_watch();
  for (auto& [name, module] : modules_) {
    for (auto& [vm, copy] : module.copies) {
      copy.drop(watches);
    }
  }
  for (auto& [vm, loader] : loaders_) {
    loader.drop(watches);
  }
}

void ScanCache::account(const CachedCopy& copy) {
  const CachedCopy::Fetch& last = copy.last;
  if (last.loader == CachedCopy::Loader::kWalked) {
    ++stats_.loader_walks;
    context_->pm.loader_walks.inc();
  } else if (last.loader == CachedCopy::Loader::kSnapshot) {
    ++stats_.loader_reuses;
    context_->pm.loader_reuses.inc();
  }
  if (last.outcome == CachedCopy::Outcome::kReused) {
    ++stats_.cache_reuses;
    context_->pm.cache_reuses.inc();
  } else if (last.outcome == CachedCopy::Outcome::kPartial) {
    ++stats_.partial_refreshes;
    context_->pm.partial_refreshes.inc();
    if (!last.content_changed) {
      ++stats_.unchanged_refreshes;
      context_->pm.unchanged_refreshes.inc();
    }
  } else if (last.outcome == CachedCopy::Outcome::kFull) {
    ++stats_.full_extractions;
  }
  stats_.invalidations += last.invalidated ? 1 : 0;
  stats_.frames_reread += last.frames_reread;
  context_->pm.frames_reread.inc(last.frames_reread);
}

}  // namespace mc::core
