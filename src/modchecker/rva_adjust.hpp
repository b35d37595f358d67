// Algorithm 2 — Adjusting Relative Virtual Addresses (RVAs).
//
// The heart of ModChecker's dictionary-free design.  Two copies of the same
// executable section, loaded at different bases, differ exactly at the
// loader-relocated absolute addresses.  Without any relocation metadata the
// algorithm recovers the RVAs:
//
//   1. Compare the two modules' base addresses byte by byte (little-endian,
//      i.e. least significant first).  `offset` = 1-based index of the
//      first differing byte.  If the bases are identical there is nothing
//      to adjust.
//   2. Scan the two section copies in lockstep.  At the first differing
//      byte j, the enclosing 4-byte absolute address is assumed to *start*
//      at j - offset + 1 (the address's low bytes can agree when the bases
//      share leading bytes — the paper's '00 CC 20 F8' vs '00 CC 90 70'
//      example).
//   3. Read the 4-byte values, subtract the respective bases (eq. 1:
//      RVA = AbsoluteAddress - BaseAddress).  If both RVAs agree, the
//      difference was indeed a relocation: overwrite both addresses with
//      the common RVA, making the copies byte-identical there.  If they
//      disagree, the difference is real content divergence (an infection):
//      leave the bytes alone so the hashes differ.
//   4. Continue scanning after the 4-byte window.
//
// This faithfully implements the paper's Algorithm 2 (including its
// `offset` arithmetic), with explicit bounds handling at section edges.
//
// Evasion resistance: an attacker controlling one VM's copy cannot craft
// an in-place change the algorithm normalizes away — acceptance requires
// V_attacker - base1 == V_reference - base2, i.e. V_attacker equals the
// byte's original value; any real change survives as an unresolved
// difference (property-tested in tests/rva_adjust_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bytes.hpp"

namespace mc::core {

struct RvaAdjustResult {
  /// Number of 4-byte absolute addresses successfully converted to RVAs.
  std::uint32_t adjusted = 0;
  /// Number of differing positions that were NOT consistent relocations
  /// (RVA1 != RVA2) — genuine divergence, typically an infection.
  std::uint32_t unresolved_diffs = 0;

  bool sections_identical_after() const { return unresolved_diffs == 0; }
};

/// One window Algorithm 2 rewrote to its RVA: `width` bytes at `start`.
struct FixupWindow {
  std::uint32_t start = 0;
  std::uint32_t width = 0;

  bool operator==(const FixupWindow&) const = default;
};

/// Runs Algorithm 2 over two equally sized section-data buffers, mutating
/// both in place.  `base1`/`base2` are the modules' load bases.
/// Buffers of different lengths: the common prefix is processed and every
/// trailing byte counts as an unresolved difference.
///
/// The diff scan runs on the word kernel (util/simd.hpp);
/// tests/simd_equivalence_test.cpp checks the rewritten bytes and the
/// adjusted count against the byte-at-a-time reference in tests/oracle.hpp.
///
/// `windows` (optional) is replaced with the windows the run rewrote, in
/// scan order; recording them changes nothing else.
RvaAdjustResult adjust_rvas(MutableByteView section1, std::uint32_t base1,
                            MutableByteView section2, std::uint32_t base2,
                            std::vector<FixupWindow>* windows = nullptr);

/// The `offset` of Algorithm 2 lines 1-9: 1-based index of the first
/// differing byte between the two base addresses (little-endian byte
/// order); 0 if the bases are identical.
std::uint32_t base_difference_offset(std::uint32_t base1, std::uint32_t base2);

/// Format-supplied absolute-fixup recipe for the pairwise normalization —
/// what a format plugin (modchecker/format.hpp) knows about how its
/// loader rewrites addresses.  PE32 loaders patch 4-byte absolute
/// addresses relative to the 32-bit load base; ELF64 .ko loaders patch
/// 8-byte R_X86_64_64 values (with 4-byte R_X86_64_32S truncated stores
/// as the secondary shape) against the sign-extended canonical kernel
/// address `0xFFFFFFFF00000000 | base`.
struct FixupPolicy {
  /// Primary absolute-address width in bytes (4 = PE32, 8 = ELF64).
  std::uint32_t width = 4;
  /// Secondary width tried when the primary window's RVAs disagree
  /// (ELF64: R_X86_64_32S stores only the low dword); 0 disables.
  std::uint32_t alt_width = 0;
  /// OR'd onto the 32-bit guest load base to reconstruct the link-view
  /// base address the loader relocated against.
  std::uint64_t base_bias = 0;

  /// The link-view base the loader relocated a copy at `base` against.
  std::uint64_t biased_base(std::uint32_t base) const {
    return base_bias | base;
  }

  bool operator==(const FixupPolicy&) const = default;
};

/// Algorithm 2 generalized over a format's FixupPolicy.  For the default
/// PE32 policy this *is* adjust_rvas (same scan, bit-identical bytes and
/// counters).  Otherwise the same candidate-window scan runs with the
/// policy's widths: at each first-differing byte the primary-width window
/// is tested (value − biased base on each side; equal RVAs → rewrite both
/// windows to the common RVA), the secondary width is tested on failure,
/// and anything else counts as an unresolved difference exactly like the
/// 4-byte algorithm.
///
/// `windows` (optional) is replaced with the windows the run rewrote, in
/// scan order, each with the width that resolved it.
RvaAdjustResult adjust_fixups(MutableByteView section1, std::uint32_t base1,
                              MutableByteView section2, std::uint32_t base2,
                              const FixupPolicy& fixups,
                              std::vector<FixupWindow>* windows = nullptr);

/// Where adjust_fixups_resumed stopped.
struct ResumedRun {
  /// Windows rewritten and differences left unresolved by this slice of
  /// the run.
  RvaAdjustResult counts;
  /// Absolute scan position the run stopped at.
  std::size_t stop = 0;
  /// True when `stop` is a resynchronisation point or the section end;
  /// false when a step needed bytes outside the slice (nothing past `stop`
  /// was decided).
  bool synced = false;
};

/// adjust_fixups' own scan, resumed mid-section — the entry point the
/// pool's delta fallback uses to run Algorithm 2 around a patch only
/// (DESIGN §5.1, "the locality lemma").  `section1`/`section2` hold bytes
/// [origin, origin + size) of two sections of `common` bytes each, loaded
/// at the distinct bases `base1`/`base2`, in the state an earlier part of
/// the run left them; the scan starts at absolute position `from`.  It
/// stops at the first step boundary p >= `until` that lies strictly
/// inside none of the windows at `starts` (ascending, non-overlapping,
/// the policy's primary width), or that lies inside one whose remaining
/// bytes are equal on both sides (`stop` is then that window's end), or
/// at the section end.  Bytes are rewritten, and differences counted,
/// exactly as the full run would between `from` and `stop`.
ResumedRun adjust_fixups_resumed(MutableByteView section1, std::uint32_t base1,
                                 MutableByteView section2, std::uint32_t base2,
                                 const FixupPolicy& fixups, std::size_t origin,
                                 std::size_t common, std::size_t from,
                                 std::size_t until,
                                 const std::vector<std::uint32_t>& starts);

/// The relocation windows of one fully resolved Algorithm 2 run that
/// produced a canonical form C, kept so a later copy at another base can
/// be settled without running Algorithm 2 again (DESIGN §5.1, "Algorithm
/// 2 once per pool").  A copy X of C's size under the same policy passes
/// relocated_content_equal (modchecker/item_content.hpp) iff it equals C
/// outside the windows and holds C's value plus X's biased base, mod
/// 2^width, in each window; for such a copy, adjust_fixups against the
/// run's reference rewrites exactly these windows and yields C.
class WindowMap {
 public:
  /// The map of a run under `policy` over `size`-byte content, or nullopt
  /// when the run cannot be replayed from its windows alone: a window of
  /// the policy's alternate width (at a new base the primary width may
  /// resolve there instead), or two overlapping windows (the later one
  /// read bytes the earlier one had already rewritten).
  static std::optional<WindowMap> from_run(
      const FixupPolicy& policy, std::size_t size,
      const std::vector<FixupWindow>& windows);

  /// True when a copy under `policy` with `size` content bytes may be
  /// settled through this map.
  bool usable_for(const FixupPolicy& policy, std::size_t size) const {
    return policy == policy_ && size == size_;
  }

  std::size_t size() const { return size_; }
  /// Window starts, ascending; every window is the policy's width.
  const std::vector<std::uint32_t>& starts() const { return starts_; }

 private:
  WindowMap(const FixupPolicy& policy, std::size_t size)
      : policy_(policy), size_(size) {}

  FixupPolicy policy_;
  std::size_t size_ = 0;
  std::vector<std::uint32_t> starts_;
};

}  // namespace mc::core
