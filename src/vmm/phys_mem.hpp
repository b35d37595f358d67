// Guest physical memory.
//
// Frame-granular (4 KiB) sparse storage: frames materialize on first write,
// reads of untouched frames observe zeros — so fifteen multi-GB guests cost
// only what they actually touch (kernel area + loaded modules).  This is
// the memory the introspection layer reads page by page, exactly like
// LibVMI mapping Xen guest frames.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "util/bytes.hpp"

namespace mc::vmm {

class WriteWatch;

inline constexpr std::uint32_t kFrameSize = 4096;
inline constexpr std::uint32_t kFrameShift = 12;

class PhysicalMemory {
 public:
  /// `size_bytes` is rounded up to a whole number of frames.
  explicit PhysicalMemory(std::uint64_t size_bytes);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;
  PhysicalMemory(PhysicalMemory&&) = default;
  PhysicalMemory& operator=(PhysicalMemory&&) = default;

  std::uint64_t size() const { return size_; }
  std::uint32_t frame_count() const {
    return static_cast<std::uint32_t>(size_ >> kFrameShift);
  }

  /// Number of frames that have been materialized (diagnostics).
  std::size_t resident_frames() const { return frames_.size(); }

  /// Bump-allocates a fresh frame (used by the guest "kernel" for page
  /// tables and module memory).  Returns the frame number.
  std::uint32_t alloc_frame();

  /// Reserves `count` contiguous frames; returns the first frame number.
  std::uint32_t alloc_frames(std::uint32_t count);

  // ---- byte-addressed access (may cross frame boundaries) ----------------
  void read(std::uint64_t pa, MutableByteView out) const;
  void write(std::uint64_t pa, ByteView data);

  /// Borrowed view of one frame's backing storage (the zero-copy read
  /// path).  Non-resident frames all alias one shared immutable zero
  /// frame, mirroring read()'s zero-fill semantics without materializing
  /// anything.  Frames never move once materialized, so the view stays
  /// valid until restore_from() replaces the frame set — borrowers must
  /// not hold views across a snapshot restore.
  ByteView frame_view(std::uint32_t frame_no) const;

  // ---- dirty tracking ------------------------------------------------------
  // Every write stamps the touched frames with a monotonically increasing
  // version (the moral equivalent of Xen's log-dirty mode), kept in a flat
  // per-frame table.  These raw accessors are the WriteWatch subsystem's
  // substrate: scan-layer consumers register WatchSets there instead of
  // polling versions here (enforced by mc_analyze's watch-bypass rule).
  std::uint64_t write_counter() const { return write_counter_; }
  std::uint64_t frame_version(std::uint32_t frame_no) const;

  /// Wires this memory to the hypervisor's WriteWatch: every write (and
  /// every restore_from) is reported under `domain`.  Called once by the
  /// hypervisor at domain creation; snapshot-internal copies stay unwired.
  void attach_watch(WriteWatch* watch, std::uint32_t domain) {
    watch_ = watch;
    watch_domain_ = domain;
  }

  /// Reports the owning domain's page-directory switch to the WriteWatch
  /// (Domain::set_cr3); no frame is written.
  void note_cr3_switch();

  std::uint8_t read_u8(std::uint64_t pa) const;
  std::uint32_t read_u32(std::uint64_t pa) const;
  void write_u32(std::uint64_t pa, std::uint32_t value);

  /// Deep copy (VM cloning / snapshots).
  PhysicalMemory clone() const;

  /// Replaces contents with those of `other` (snapshot restore).
  void restore_from(const PhysicalMemory& other);

 private:
  using Frame = std::array<std::uint8_t, kFrameSize>;

  const Frame* frame_if_present(std::uint32_t frame_no) const;
  Frame& frame_for_write(std::uint32_t frame_no);
  void check_range(std::uint64_t pa, std::uint64_t len) const;

  std::uint64_t size_;
  std::uint32_t next_alloc_frame_;
  std::uint64_t write_counter_ = 0;
  std::uint64_t version_floor_ = 0;
  std::map<std::uint32_t, std::unique_ptr<Frame>> frames_;
  /// Flat per-frame version stamps, indexed by frame number and grown
  /// lazily to the high-water written frame (frames are bump-allocated
  /// from low numbers, so this tracks residency, not total capacity).
  /// Replaces the historical std::map — the dirty-check path reads one
  /// slot instead of paying a map find per frame.
  std::vector<std::uint64_t> frame_stamps_;
  WriteWatch* watch_ = nullptr;
  std::uint32_t watch_domain_ = 0;
};

}  // namespace mc::vmm
