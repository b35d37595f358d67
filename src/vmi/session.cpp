#include "vmi/session.hpp"

#include <algorithm>
#include <utility>

#include "guestos/winlike.hpp"
#include "util/error.hpp"
#include "util/utf16.hpp"
#include "vmm/address_space.hpp"
#include "vmm/phys_mem.hpp"

namespace mc::vmi {

namespace {
constexpr std::uint32_t kPageMask = vmm::kFrameSize - 1;
}

VmiSession::VmiSession(const vmm::Hypervisor& hypervisor,
                       vmm::DomainId domain, SimClock& clock,
                       const VmiCostModel& costs,
                       telemetry::MetricRegistry* metrics)
    : hypervisor_(&hypervisor),
      domain_id_(domain),
      clock_(&clock),
      costs_(costs) {
  telemetry::MetricRegistry& reg = telemetry::resolve(metrics);
  counters_.pages_mapped = reg.owned_counter("vmi.pages_mapped");
  counters_.bytes_copied = reg.owned_counter("vmi.bytes_copied");
  counters_.translations = reg.owned_counter("vmi.translations");
  counters_.translation_cache_hits =
      reg.owned_counter("vmi.translation_cache_hits");
  counters_.read_calls = reg.owned_counter("vmi.read_calls");
  counters_.kdbg_frames_scanned = reg.owned_counter("vmi.kdbg_frames_scanned");
  counters_.batched_pages = reg.owned_counter("vmi.batched_pages");
  counters_.session_reuses = reg.owned_counter("vmi.session_reuses");
  counters_.faults_observed = reg.owned_counter("vmi.faults_observed");
  counters_.view_reads = reg.owned_counter("vmi.view_reads");
  counters_.view_bytes = reg.owned_counter("vmi.view_bytes");
  // Validate the domain exists up front (mirrors vmi_init failing fast).
  (void)hypervisor_->domain(domain_id_);
  charge(costs_.attach);
}

bool VmiSession::revalidate_translations() {
  if (!tables_seen_ || hypervisor_->write_watch().table_generation(
                           domain_id_) == *tables_seen_) {
    return false;
  }
  v2p_cache_.clear();
  page_directory_.reset();
  page_tables_.clear();
  tables_seen_.reset();
  return true;
}

void VmiSession::charge(SimNanos nanos) {
  clock_->set_slowdown(hypervisor_->dom0_slowdown());
  clock_->charge(nanos);
}

FaultRecord VmiSession::make_fault(FaultCode code, std::uint32_t va,
                                   std::uint64_t pa, std::string detail) {
  counters_.faults_observed.inc_single_writer();
  FaultRecord record;
  record.code = code;
  record.domain = domain_id_;
  record.va = va;
  record.pa = pa;
  record.stage = CheckStage::kAcquire;
  record.detail = std::move(detail);
  return record;
}

MaybeFault VmiSession::try_ensure_debug_block() {
  if (ps_loaded_module_list_va_) {
    return std::nullopt;
  }
  // Scan guest physical memory for the KDBG-style debug block, frame by
  // frame at 4-byte alignment — LibVMI's Windows bootstrapping strategy.
  const vmm::PhysicalMemory& mem = hypervisor_->domain(domain_id_).memory();
  Bytes frame(vmm::kFrameSize, 0);
  const std::uint32_t frames = mem.frame_count();
  for (std::uint32_t f = 0; f < frames; ++f) {
    mem.read(std::uint64_t{f} << vmm::kFrameShift, frame);
    counters_.kdbg_frames_scanned.inc_single_writer();
    charge(costs_.kdbg_scan_per_frame);
    for (std::uint32_t off = 0; off + guestos::kDebugBlockSize <= frame.size();
         off += 4) {
      if (load_le32(frame, off) == guestos::kDebugBlockMagic) {
        ps_loaded_module_list_va_ =
            load_le32(frame, off + guestos::kOffDbgPsLoadedModuleList);
        kernel_base_va_ =
            load_le32(frame, off + guestos::kOffDbgKernelBase);
        guest_version_ = load_le32(frame, off + guestos::kOffDbgVersion);
        return std::nullopt;
      }
    }
    // Simulator shortcut: guests allocate kernel frames from the bottom,
    // so stop scanning once we pass the resident prefix.  (Real LibVMI
    // similarly bounds the scan to the low region where KDBG lives.)
    if (f > 4096 && !ps_loaded_module_list_va_) {
      break;
    }
  }
  if (!ps_loaded_module_list_va_) {
    return make_fault(FaultCode::kDebugBlockMissing, 0, 0,
                      "debug block not found in guest " +
                          std::to_string(domain_id_));
  }
  return std::nullopt;
}

Fallible<std::uint32_t> VmiSession::try_symbol_to_va(
    const std::string& symbol) {
  if (MaybeFault f = try_ensure_debug_block()) {
    return std::move(*f);
  }
  if (symbol == "PsLoadedModuleList") {
    return *ps_loaded_module_list_va_;
  }
  if (symbol == "KernBase") {
    return *kernel_base_va_;
  }
  throw VmiError("unknown kernel symbol: " + symbol);
}

Fallible<std::uint32_t> VmiSession::try_guest_version() {
  if (MaybeFault f = try_ensure_debug_block()) {
    return std::move(*f);
  }
  return *guest_version_;
}

Fallible<std::uint64_t> VmiSession::try_translate_kv2p(std::uint32_t va) {
  const std::uint32_t page = va & ~kPageMask;
  counters_.translations.inc_single_writer();
  const auto it = v2p_cache_.find(page);
  if (it != v2p_cache_.end()) {
    counters_.translation_cache_hits.inc_single_writer();
    charge(costs_.translate_cached);
    return it->second | (va & kPageMask);
  }

  // Injection gate sits in front of the walk: a cached translation never
  // faults (the mapping is already known to Dom0), an uncached one rolls
  // against the domain's profile before touching guest page tables.
  vmm::FaultInjector& injector = hypervisor_->fault_injector();
  if (injector.armed() && injector.should_fault_translation(domain_id_)) {
    return make_fault(FaultCode::kTranslationFault, va, 0,
                      "injected translation fault");
  }

  const vmm::Domain& dom = hypervisor_->domain(domain_id_);
  if (dom.cr3() == 0) {
    return make_fault(FaultCode::kNoAddressSpace, va, 0,
                      "guest has no address space (not booted?)");
  }
  // VMI implements its own two-level walk over guest physical memory
  // (exactly what LibVMI does: read CR3, then PDE, then PTE).  Each table
  // is noted before the entry in it is read, so a write after the read
  // moves the table generation revalidate_translations() compares.
  vmm::WriteWatch& watches = hypervisor_->write_watch();
  if (!tables_seen_) {
    tables_seen_ = watches.table_generation(domain_id_);
  }
  if (!page_directory_) {
    page_directory_ = static_cast<std::uint32_t>(dom.cr3() >> vmm::kFrameShift);
    watches.note_table_frame(domain_id_, *page_directory_);
  }
  const vmm::PhysicalMemory& mem = dom.memory();
  const std::uint32_t pde = mem.read_u32(dom.cr3() + 4ull * (va >> 22));
  charge(costs_.translate_walk);
  if ((pde & vmm::kPtePresent) == 0) {
    return make_fault(FaultCode::kTranslationFault, va, 0,
                      "unmapped guest VA (no PDE) in translate_kv2p");
  }
  // A hostile guest can point a PDE or PTE anywhere; a frame beyond its
  // RAM fails as a read would, before the walk touches it.
  const std::uint64_t pt_base = pde & ~std::uint64_t{kPageMask};
  if (pt_base >= mem.size()) {
    return make_fault(FaultCode::kReadFault, va, pt_base,
                      "page table frame beyond guest RAM in translate_kv2p");
  }
  const auto pt_frame = static_cast<std::uint32_t>(pt_base >> vmm::kFrameShift);
  const auto [table, added] = page_tables_.try_emplace(va >> 22, pt_frame);
  if (added || table->second != pt_frame) {
    table->second = pt_frame;
    watches.note_table_frame(domain_id_, pt_frame);
  }
  const std::uint32_t pte =
      mem.read_u32(pt_base + 4ull * ((va >> 12) & 0x3FF));
  if ((pte & vmm::kPtePresent) == 0) {
    return make_fault(FaultCode::kTranslationFault, va, 0,
                      "unmapped guest VA (no PTE) in translate_kv2p");
  }
  const std::uint64_t frame_pa = pte & ~std::uint64_t{kPageMask};
  if (frame_pa >= mem.size()) {
    return make_fault(FaultCode::kReadFault, va, frame_pa,
                      "page frame beyond guest RAM in translate_kv2p");
  }
  v2p_cache_.emplace(page, frame_pa);
  return frame_pa | (va & kPageMask);
}

template <typename Sink>
MaybeFault VmiSession::walk_guest_range(std::uint32_t va, std::size_t len,
                                        Sink&& sink) {
  counters_.read_calls.inc_single_writer();
  charge(costs_.read_call);

  // One injection roll per read call (mirrors a hypercall failing as a
  // unit, whatever its length).  The gate is a relaxed atomic load when
  // injection is disarmed, so the clean path pays a single branch.
  vmm::FaultInjector& injector = hypervisor_->fault_injector();
  if (injector.armed() && injector.should_fault_read(domain_id_)) {
    return make_fault(FaultCode::kReadFault, va, 0, "injected read fault");
  }

  const vmm::PhysicalMemory& mem = hypervisor_->domain(domain_id_).memory();

  std::size_t done = 0;
  while (done < len) {
    const std::uint32_t cur = va + static_cast<std::uint32_t>(done);
    Fallible<std::uint64_t> translated = try_translate_kv2p(cur);
    if (!translated.ok()) {
      return std::move(translated.fault());
    }
    const std::uint64_t pa = translated.value();
    const std::uint64_t frame = pa & ~std::uint64_t{kPageMask};
    if (touched_ != nullptr) {
      touched_->push_back({cur & ~kPageMask,
                           static_cast<std::uint32_t>(pa >> vmm::kFrameShift)});
    }
    // Map the frame into the privileged VM unless it is the one we already
    // have mapped (LibVMI keeps the last mapping hot).
    if (!last_mapped_frame_ || *last_mapped_frame_ != frame) {
      counters_.pages_mapped.inc_single_writer();
      charge(costs_.page_map);
      last_mapped_frame_ = frame;
    }
    const std::size_t in_page = cur & kPageMask;
    std::size_t take = std::min<std::size_t>(vmm::kFrameSize - in_page,
                                             len - done);

    if (costs_.coalesce_reads) {
      // Extend the run while the following pages translate to physically
      // contiguous frames: they join the existing mapping (cheap batched
      // charge) and the whole run is consumed in one call.  Translations
      // stay per-page — the page-table walk cannot be batched away.
      std::uint64_t next_frame = frame + vmm::kFrameSize;
      while (done + take < len) {
        const std::uint32_t next_va =
            va + static_cast<std::uint32_t>(done + take);
        Fallible<std::uint64_t> next_translated = try_translate_kv2p(next_va);
        if (!next_translated.ok()) {
          return std::move(next_translated.fault());
        }
        const std::uint64_t next_pa = next_translated.value();
        if ((next_pa & ~std::uint64_t{kPageMask}) != next_frame) {
          break;  // physical discontinuity; next loop iteration remaps
        }
        if (touched_ != nullptr) {
          touched_->push_back(
              {next_va, static_cast<std::uint32_t>(next_frame >> vmm::kFrameShift)});
        }
        const std::size_t extra =
            std::min<std::size_t>(vmm::kFrameSize, len - done - take);
        counters_.pages_mapped.inc_single_writer();
        counters_.batched_pages.inc_single_writer();
        charge(costs_.page_map_batched);
        last_mapped_frame_ = next_frame;
        take += extra;
        next_frame += vmm::kFrameSize;
        if (extra < vmm::kFrameSize) {
          break;  // request ends inside this frame
        }
      }
    }

    sink(mem, pa, done, take);
    // The per-byte charge is the simulated cost of the hypervisor walking
    // the mapped run; it applies to borrowed views and copies alike (the
    // zero-copy win is host memory traffic, not simulated time).
    charge(costs_.copy_per_byte * take);
    done += take;
  }
  return std::nullopt;
}

MaybeFault VmiSession::try_read_va(std::uint32_t va, MutableByteView out) {
  return walk_guest_range(
      va, out.size(),
      [&](const vmm::PhysicalMemory& mem, std::uint64_t pa, std::size_t done,
          std::size_t take) {
        mem.read(pa, out.subspan(done, take));
        counters_.bytes_copied.inc_single_writer(take);
      });
}

Fallible<GuestView> VmiSession::try_read_view(std::uint32_t va,
                                              std::size_t len) {
  GuestView view;
  counters_.view_reads.inc_single_writer();
  MaybeFault fault = walk_guest_range(
      va, len,
      [&](const vmm::PhysicalMemory& mem, std::uint64_t pa, std::size_t,
          std::size_t take) {
        // A coalesced run covers physically contiguous frames, but each
        // frame is its own host allocation: borrow frame by frame and let
        // GuestView coalesce what happens to be host-adjacent.
        std::size_t off = 0;
        while (off < take) {
          const std::uint64_t cur = pa + off;
          const auto frame_no =
              static_cast<std::uint32_t>(cur >> vmm::kFrameShift);
          const std::size_t in_frame =
              static_cast<std::size_t>(cur & kPageMask);
          const std::size_t chunk = std::min<std::size_t>(
              vmm::kFrameSize - in_frame, take - off);
          view.append(mem.frame_view(frame_no).subspan(in_frame, chunk));
          off += chunk;
        }
        counters_.view_bytes.inc_single_writer(take);
      });
  if (fault) {
    return std::move(*fault);
  }
  return view;
}

Fallible<std::optional<ByteView>> VmiSession::try_read_frame(
    std::uint32_t va, std::size_t len, std::uint32_t frame) {
  MC_CHECK((va & kPageMask) + len <= vmm::kFrameSize,
           "try_read_frame: range crosses a page");
  Fallible<std::uint64_t> pa = try_translate_kv2p(va & ~kPageMask);
  if (!pa.ok()) {
    return std::move(pa.fault());
  }
  if (static_cast<std::uint32_t>(pa.value() >> vmm::kFrameShift) != frame) {
    return std::optional<ByteView>();
  }
  // walk_guest_range over one page, whose translation the lookup above
  // just cached: a cache hit, one mapping, one per-byte charge.
  counters_.view_reads.inc_single_writer();
  counters_.read_calls.inc_single_writer();
  charge(costs_.read_call);
  vmm::FaultInjector& injector = hypervisor_->fault_injector();
  if (injector.armed() && injector.should_fault_read(domain_id_)) {
    return make_fault(FaultCode::kReadFault, va, 0, "injected read fault");
  }
  counters_.translations.inc_single_writer();
  counters_.translation_cache_hits.inc_single_writer();
  charge(costs_.translate_cached);
  if (touched_ != nullptr) {
    touched_->push_back({va & ~kPageMask, frame});
  }
  const std::uint64_t frame_pa = pa.value();
  if (!last_mapped_frame_ || *last_mapped_frame_ != frame_pa) {
    counters_.pages_mapped.inc_single_writer();
    charge(costs_.page_map);
    last_mapped_frame_ = frame_pa;
  }
  const ByteView bytes = hypervisor_->domain(domain_id_)
                             .memory()
                             .frame_view(frame)
                             .subspan(va & kPageMask, len);
  charge(costs_.copy_per_byte * len);
  counters_.view_bytes.inc_single_writer(len);
  return std::optional<ByteView>(bytes);
}

std::uint64_t VmiSession::cr3() const {
  return hypervisor_->domain(domain_id_).cr3();
}

Fallible<std::uint32_t> VmiSession::try_read_u32(std::uint32_t va) {
  std::uint8_t buf[4];
  if (MaybeFault f = try_read_va(va, MutableByteView(buf, 4))) {
    return std::move(*f);
  }
  return load_le32(ByteView(buf, 4), 0);
}

Fallible<std::uint16_t> VmiSession::try_read_u16(std::uint32_t va) {
  std::uint8_t buf[2];
  if (MaybeFault f = try_read_va(va, MutableByteView(buf, 2))) {
    return std::move(*f);
  }
  return load_le16(ByteView(buf, 2), 0);
}

Fallible<Bytes> VmiSession::try_read_region(std::uint32_t va,
                                            std::size_t len) {
  Bytes out(len, 0);
  if (MaybeFault f = try_read_va(va, out)) {
    return std::move(*f);
  }
  return out;
}

Fallible<std::string> VmiSession::try_read_unicode_string(
    std::uint32_t us_va) {
  Fallible<std::uint16_t> length =
      try_read_u16(us_va + guestos::kOffUsLength);
  if (!length.ok()) {
    return std::move(length.fault());
  }
  Fallible<std::uint32_t> buffer =
      try_read_u32(us_va + guestos::kOffUsBuffer);
  if (!buffer.ok()) {
    return std::move(buffer.fault());
  }
  if (length.value() == 0 || buffer.value() == 0) {
    return std::string{};
  }
  Fallible<Bytes> raw = try_read_region(buffer.value(), length.value());
  if (!raw.ok()) {
    return std::move(raw.fault());
  }
  return utf16le_to_ascii(raw.value());
}

// ---- Write-watch registration ----------------------------------------------

vmm::WriteWatch::WatchId VmiSession::register_watch(
    std::vector<std::uint32_t> frames, std::vector<std::uint32_t> regions) {
  charge(costs_.watch_register_per_frame * frames.size());
  std::sort(regions.begin(), regions.end());
  regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
  if (!frames.empty() && page_directory_) {
    frames.push_back(*page_directory_);
  }
  for (const std::uint32_t region : regions) {
    const auto it = page_tables_.find(region);
    if (it != page_tables_.end()) {
      frames.push_back(it->second);
    }
  }
  return hypervisor_->write_watch().register_watch(domain_id_,
                                                   std::move(frames));
}

Fallible<vmm::WriteWatch::WatchId> VmiSession::try_watch_range(
    std::uint32_t va, std::size_t len) {
  std::vector<std::uint32_t> frames;
  std::vector<std::uint32_t> regions;
  const std::uint32_t first_page = va & ~kPageMask;
  for (std::uint64_t page = first_page; page < std::uint64_t{va} + len;
       page += vmm::kFrameSize) {
    Fallible<std::uint64_t> pa =
        try_translate_kv2p(static_cast<std::uint32_t>(page));
    if (!pa.ok()) {
      return std::move(pa.fault());
    }
    frames.push_back(static_cast<std::uint32_t>(pa.value() >> vmm::kFrameShift));
    regions.push_back(static_cast<std::uint32_t>(page >> 22));
  }
  return register_watch(std::move(frames), std::move(regions));
}

vmm::WriteWatch::WatchId VmiSession::watch_pages(
    const std::vector<TouchedPage>& pages) {
  std::vector<std::uint32_t> frames;
  std::vector<std::uint32_t> regions;
  for (const TouchedPage& page : pages) {
    frames.push_back(page.frame);
    regions.push_back(page.va >> 22);
  }
  std::sort(frames.begin(), frames.end());
  frames.erase(std::unique(frames.begin(), frames.end()), frames.end());
  return register_watch(std::move(frames), std::move(regions));
}

bool VmiSession::watch_dirty(vmm::WriteWatch::WatchId watch) {
  charge(costs_.watch_query);
  return hypervisor_->write_watch().dirty(watch);
}

std::vector<std::uint32_t> VmiSession::watch_drain(
    vmm::WriteWatch::WatchId watch) {
  charge(costs_.watch_query);
  return hypervisor_->write_watch().drain(watch);
}

}  // namespace mc::vmi
