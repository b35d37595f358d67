// Scatter-gather view of module content: the one content type from
// Acquire to Hash.
//
// A GuestView maps a range onto a sequence of borrowed spans.  Acquire
// builds one over the simulated physical frames backing a guest-virtual
// range (plus the shared zero frame for never-written pages);
// VmiSession::try_read_view does that instead of copying every page into
// a fresh Bytes buffer.  An owned image (the scan cache's copy, a golden
// file, a disk dump) is a Bytes buffer its holder keeps plus a
// one-segment view over it.  Parse, Normalize, Compare and Hash walk the
// segments in place and never know which kind of memory they read.
//
// Ownership and lifetime rules (DESIGN.md §11):
//   * A GuestView borrows — it never owns bytes.  Over guest frames the
//     spans are stable once a frame is materialized, but snapshot
//     restore_from() REPLACES the frames, a guest write changes them in
//     place and a domain destroy frees them.  A caller that keeps content
//     across any of those calls materialize() first.  Over an owned
//     buffer the view is valid while the buffer's holder keeps it
//     unmoved (the scan cache's CachedCopy is non-copyable for this).
//   * materialize()/read_into() are the only copy points.  Production
//     code may materialize only on fault, tamper-evidence, cache or dump
//     paths; the clean fresh-scan path is gated to zero materializations.
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

  /// One segment over `content` (empty content: an empty view): how an
  /// owned buffer becomes content.  The view borrows exactly what the
  /// ByteView did.
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, so a
  // ByteView holder (a golden file, a loader's image) hands its bytes
  // straight to a parser.
  GuestView(ByteView content) { append(content); }

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
