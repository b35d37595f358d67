// Scatter-gather view of guest memory: the zero-copy Acquire result.
//
// A GuestView maps a guest-virtual range onto a sequence of borrowed
// spans over the simulated physical frames backing it (plus the shared
// zero frame for never-written pages).  VmiSession::try_read_view builds
// one instead of copying every page into a fresh Bytes buffer; Parse,
// Normalize, Compare and Hash then walk the segments in place.
//
// Ownership and lifetime rules (DESIGN.md §11):
//   * A GuestView borrows — it never owns guest bytes.  The spans point
//     into PhysicalMemory frames, which are stable once materialized but
//     are REPLACED by snapshot restore_from().  Views are therefore valid
//     for the duration of one scan and must not be cached across scans
//     (the scan cache under pool_scan keeps owned copies for exactly
//     this reason; Acquire borrows everywhere else).
//   * materialize()/read_into() are the only copy points.  Production
//     code may materialize only on fault, tamper-evidence, or dump paths;
//     the clean-scan path is gated to zero materializations.
//   * Deliberately depends only on util/ so pe/ (which cannot link the
//     introspection stack) can consume views.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace mc::vmi {

class GuestView {
 public:
  GuestView() = default;

  /// Appends a borrowed segment; host-adjacent segments coalesce so a
  /// physically contiguous run becomes one span.
  void append(ByteView segment);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const std::vector<ByteView>& segments() const { return segments_; }

  /// The whole view as a single span, if it happens to be contiguous in
  /// host memory (single segment).  Returns an empty view otherwise —
  /// callers must check contiguous() first when size() > 0.
  bool contiguous() const { return segments_.size() <= 1; }
  ByteView as_contiguous() const;

  std::uint8_t byte_at(std::size_t off) const;

  /// Bounds-checked copy of [off, off+out.size()) into `out`.
  void read_into(std::size_t off, MutableByteView out) const;

  /// Sub-range [off, off+len) as a view sharing the same borrowed spans.
  GuestView subview(std::size_t off, std::size_t len) const;

  /// Owned copy — the fault / tamper-evidence / dump escape hatch.
  Bytes materialize() const;

  /// Walks the borrowed spans in order (streaming hash / CRC callers).
  template <typename Fn>
  void for_each_segment(Fn&& fn) const {
    for (const ByteView& s : segments_) {
      fn(s);
    }
  }

 private:
  std::vector<ByteView> segments_;
  std::size_t size_ = 0;
};

}  // namespace mc::vmi
