// Virtual machine introspection session — the LibVMI stand-in.
//
// A VmiSession gives the privileged VM *read-only* access to one guest's
// memory: kernel-virtual reads through real page-table walks (with a V2P
// cache), UNICODE_STRING helpers, and kernel symbol resolution via a
// physical-memory scan for the guest's KDBG-style debugger block — the same
// strategy LibVMI uses to find PsLoadedModuleList on Windows guests.
//
// Every operation charges simulated time (scaled by the hypervisor's
// current contention factor) to the session's SimClock, and counts its
// accesses in the telemetry registry ("vmi.*").  There is deliberately no
// write path: the paper's threat model has ModChecker strictly observing
// (§III-B: "performs read-only operations of the memory of guest VMs").
//
// Fault model: every guest read is a `try_*` method, as LibVMI reports a
// failed read as a status value.  A failed guest read or translation
// (real, injected by the hypervisor's FaultInjector, or a hostile page
// table pointing outside guest RAM) comes back as a FaultRecord in a
// Fallible/MaybeFault return, never as control flow.  Only API misuse
// throws: NotFoundError for a nonexistent domain at attach, VmiError for
// an unknown symbol name.
//
// Translation validity: the V2P cache outlives a scan in a pooled session,
// so the session notes every page-table frame it walks with the
// hypervisor's WriteWatch (before the entry in it is read) and keeps the
// domain's table generation from before its first cached walk.
// revalidate_translations() drops every cached translation once that
// generation moved; the pool calls it on every checkout, so a guest that
// remaps a page through its page tables is seen at the next scan even
// though the old frame was never written.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/registry.hpp"
#include "util/bytes.hpp"
#include "util/fault.hpp"
#include "util/sim_clock.hpp"
#include "vmi/cost_model.hpp"
#include "vmi/guest_view.hpp"
#include "vmm/hypervisor.hpp"

namespace mc::vmi {

class VmiSession {
 public:
  /// Attaches to `domain` (throws NotFoundError if absent — attaching to a
  /// domain that does not exist is caller error, not a guest fault).  The
  /// debug block scan is performed lazily on first symbol lookup.
  /// Counters register with `metrics` (null = the process default registry).
  VmiSession(const vmm::Hypervisor& hypervisor, vmm::DomainId domain,
             SimClock& clock, const VmiCostModel& costs = {},
             telemetry::MetricRegistry* metrics = nullptr);

  vmm::DomainId domain_id() const { return domain_id_; }

  SimClock& clock() { return *clock_; }
  const VmiCostModel& costs() const { return costs_; }

  /// Points subsequent charges at a different clock.  A pooled session
  /// outlives any single scan; each checkout rebinds it to the caller's
  /// clock so time is billed to the operation actually running.
  void rebind_clock(SimClock& clock) { clock_ = &clock; }

  /// Pool bookkeeping: bumps the cross-scan reuse counter.
  void note_reuse() { counters_.session_reuses.inc(); }

  /// Drops every cached translation if a page-table frame of the domain
  /// that this session walked was written since its first cached walk (one
  /// O(1) query, not charged: the check is the hypervisor's own
  /// bookkeeping).  True when it dropped them.
  bool revalidate_translations();

  // ---- Guest reads --------------------------------------------------------

  /// Resolves an exported kernel symbol ("PsLoadedModuleList",
  /// "KernBase").  First call triggers the debug-block scan.  An unknown
  /// symbol name is API misuse and throws VmiError.
  Fallible<std::uint32_t> try_symbol_to_va(const std::string& symbol);

  /// The guest OS build id from the debug block (triggers the scan).
  /// Profile-aware consumers map it with guestos::find_profile_by_version.
  Fallible<std::uint32_t> try_guest_version();

  /// Kernel-virtual to physical translation (cached).  Injected and real
  /// translation faults come back as records; a page-table or page frame
  /// beyond guest RAM is a kReadFault.
  Fallible<std::uint64_t> try_translate_kv2p(std::uint32_t va);

  /// Reads guest memory by kernel-virtual address, page by page: each page
  /// is translated, mapped (charged) and copied (charged) — the access
  /// pattern that makes whole-module extraction expensive.  One injection
  /// roll per call (not per byte).
  [[nodiscard]] MaybeFault try_read_va(std::uint32_t va, MutableByteView out);

  /// Convenience typed reads over try_read_va.
  Fallible<std::uint32_t> try_read_u32(std::uint32_t va);
  Fallible<std::uint16_t> try_read_u16(std::uint32_t va);

  /// Reads `len` bytes into a fresh buffer.
  Fallible<Bytes> try_read_region(std::uint32_t va, std::size_t len);

  /// Zero-copy read: walks and charges exactly like try_read_va (same
  /// translations, same map/batch pattern, same per-byte touch cost — the
  /// simulated hypervisor still maps and walks every page), but returns
  /// borrowed spans over the backing frames instead of copying them into
  /// a fresh buffer.  The view is valid until the guest's memory is
  /// restored from a snapshot; see guest_view.hpp for the borrowing rules.
  Fallible<GuestView> try_read_view(std::uint32_t va, std::size_t len);

  /// A cached copy's dirty-page read: what try_translate_kv2p of va's page
  /// and then, while the page is still backed by `frame`,
  /// try_read_view(va, len) charge and count, injection roll included,
  /// from one translation lookup, returning the frame's bytes instead of a
  /// GuestView.
  /// [va, va + len) must lie in one page.  Disengaged when another frame
  /// backs the page (only the translation was charged).
  Fallible<std::optional<ByteView>> try_read_frame(std::uint32_t va,
                                                   std::size_t len,
                                                   std::uint32_t frame);

  /// The domain's current page-directory base.  A cache of translations
  /// made under another value is stale even if no watched frame was
  /// written: the guest switched to other page tables.
  std::uint64_t cr3() const;

  /// Decodes a UNICODE_STRING structure at `us_va` (reads the descriptor,
  /// then the UTF-16LE buffer it points to).
  Fallible<std::string> try_read_unicode_string(std::uint32_t us_va);

  // ---- Write-watch registration (the log-dirty consumer API) ---------------
  // LibVMI-style wrapper over the hypervisor's WriteWatch: an incremental
  // consumer registers the frames backing a kernel-VA range (one frame per
  // page, in VA order — dirty index i maps back to page i of the range),
  // then polls dirty state in O(1) instead of re-reading the range.

  /// Translates every page of [va, va+len) (charged like any walk; faults
  /// propagate) and registers a WatchSet over the backing frames.  The
  /// page-table frames that map the range follow the page frames in the
  /// watch (indices from the page count on), so a remap dirties it too;
  /// only the page frames are charged `watch_register_per_frame` (guest
  /// page tables are write-protected by the hypervisor anyway).
  Fallible<vmm::WriteWatch::WatchId> try_watch_range(std::uint32_t va,
                                                     std::size_t len);

  /// A guest page one read touched: its kernel VA and backing frame.
  struct TouchedPage {
    std::uint32_t va = 0;
    std::uint32_t frame = 0;
  };

  /// While `out` is non-null, every page a read touches is appended to it
  /// (repeats included); null stops recording.
  void record_touched(std::vector<TouchedPage>* out) { touched_ = out; }

  /// Registers a WatchSet over the distinct frames of `pages` plus the
  /// page-table frames that map them, charged like try_watch_range.  The
  /// pages must have been translated by this session since the last
  /// revalidate_translations() (a recorded read did that).
  vmm::WriteWatch::WatchId watch_pages(const std::vector<TouchedPage>& pages);

  /// O(1) dirty query (charges `watch_query`).
  bool watch_dirty(vmm::WriteWatch::WatchId watch);

  /// Atomic fetch-and-clear of the dirty set (charges `watch_query`); the
  /// refresh-then-clear primitive — see WriteWatch::drain.
  std::vector<std::uint32_t> watch_drain(vmm::WriteWatch::WatchId watch);

 private:
  void charge(SimNanos nanos);

  /// The shared page walk behind try_read_va and try_read_view: performs
  /// the injection roll, per-page translation and map/batch charging, then
  /// hands each mapped run to `sink(mem, pa, done, take)`.  Keeping one
  /// walk guarantees the copying and zero-copy paths charge bit-identical
  /// simulated costs (the differential suites assert this).
  template <typename Sink>
  [[nodiscard]] MaybeFault walk_guest_range(std::uint32_t va, std::size_t len,
                                            Sink&& sink);

  [[nodiscard]] MaybeFault try_ensure_debug_block();

  /// Registers a watch over `frames` (charged per frame) followed by the
  /// page directory and the page table of each 4 MiB region in `regions`
  /// (VA >> 22), as this session walked them.
  vmm::WriteWatch::WatchId register_watch(std::vector<std::uint32_t> frames,
                                          std::vector<std::uint32_t> regions);

  FaultRecord make_fault(FaultCode code, std::uint32_t va, std::uint64_t pa,
                         std::string detail);

  /// Atomic per-session cells of the fleet-wide "vmi.*" aggregates.  A
  /// session has one user at a time (the pool leases it under a lock), so
  /// hot-path increments are single-writer relaxed stores
  /// (OwnedCounter::inc_single_writer); a concurrent registry read never
  /// tears.  note_reuse() runs under the pool's lock and stays a fetch_add.
  struct SessionCounters {
    telemetry::OwnedCounter pages_mapped;
    telemetry::OwnedCounter bytes_copied;
    telemetry::OwnedCounter translations;
    telemetry::OwnedCounter translation_cache_hits;
    telemetry::OwnedCounter read_calls;
    telemetry::OwnedCounter kdbg_frames_scanned;
    telemetry::OwnedCounter batched_pages;
    telemetry::OwnedCounter session_reuses;
    telemetry::OwnedCounter faults_observed;
    telemetry::OwnedCounter view_reads;
    telemetry::OwnedCounter view_bytes;
  };

  const vmm::Hypervisor* hypervisor_;
  vmm::DomainId domain_id_;
  SimClock* clock_;
  VmiCostModel costs_;
  SessionCounters counters_;

  std::optional<std::uint32_t> ps_loaded_module_list_va_;
  std::optional<std::uint32_t> kernel_base_va_;
  std::optional<std::uint32_t> guest_version_;
  std::unordered_map<std::uint32_t, std::uint64_t> v2p_cache_;  // page -> frame
  std::optional<std::uint64_t> last_mapped_frame_;
  /// Page-table frames behind the cached translations, each noted with
  /// the WriteWatch: the page directory and, per 4 MiB region (VA >> 22),
  /// its page table.  `tables_seen_` is the domain's table generation
  /// read before the first walk they came from.
  std::optional<std::uint32_t> page_directory_;
  std::map<std::uint32_t, std::uint32_t> page_tables_;
  std::optional<std::uint64_t> tables_seen_;
  std::vector<TouchedPage>* touched_ = nullptr;
};

}  // namespace mc::vmi
