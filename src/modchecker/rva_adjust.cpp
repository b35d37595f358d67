#include "modchecker/rva_adjust.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/wordload.hpp"

namespace mc::core {

namespace {

// Number of nonzero bytes in a 64-bit word: bit 7 of each lane ends up set
// iff the lane is nonzero, then popcount the lane flags.
std::uint32_t nonzero_byte_count(std::uint64_t x) {
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  const std::uint64_t flags = (x | ((x & kLow7) + kLow7)) & kHigh;
  return static_cast<std::uint32_t>(std::popcount(flags));
}

// Identical-bases path: every differing byte is real divergence; count
// them all, a word at a time with a per-word byte population count.
std::uint32_t count_differing_bytes(ByteView a, ByteView b, std::size_t n) {
  MC_CHECK(n <= a.size() && n <= b.size(),
           "count_differing_bytes out of range");
  std::uint32_t diffs = 0;
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const std::uint64_t x =
        load_word64(a.data() + j) ^ load_word64(b.data() + j);
    if (x != 0) {
      diffs += nonzero_byte_count(x);
    }
  }
  for (; j < n; ++j) {
    if (a[j] != b[j]) {
      ++diffs;
    }
  }
  return diffs;
}

}  // namespace

std::uint32_t base_difference_offset(std::uint32_t base1,
                                     std::uint32_t base2) {
  // Algorithm 2 lines 1-9, as one word compare instead of four byte
  // probes: XOR the little-endian base words; the trailing-zero count of
  // the difference locates the first differing byte (1-based).
  const std::uint32_t x = base1 ^ base2;
  if (x == 0) {
    return 0;  // IsDifferenceExist == 0
  }
  return static_cast<std::uint32_t>(std::countr_zero(x)) / 8 + 1;
}

namespace {

/// Where the scan may stop early: a step boundary at or past `until` at
/// which the run is back in step with a run over two relocated copies.
struct Resync {
  const std::vector<std::uint32_t>* starts;
  std::uint32_t width;
  std::size_t until;

  /// True when scan position `pos` over the slice `s1`/`s2` (section
  /// bytes from `origin`) is resynchronised; `stop` is then the position
  /// it is equivalent to: `pos` itself when it lies strictly inside no
  /// window, else the end of its window when the rest of that window is
  /// equal on both sides (the next difference is the next window's).
  bool reached(std::size_t pos, ByteView s1, ByteView s2, std::size_t origin,
               std::size_t& stop) const {
    if (pos < until) {
      return false;
    }
    const auto it = std::upper_bound(starts->begin(), starts->end(), pos);
    if (it == starts->begin() || *(it - 1) + width <= pos) {
      stop = pos;
      return true;
    }
    const std::size_t window_end = *(it - 1) + width;
    if (window_end > origin + s1.size() ||
        !simd::equal(s1.subspan(pos - origin, window_end - pos),
                     s2.subspan(pos - origin, window_end - pos))) {
      return false;
    }
    stop = window_end;
    return true;
  }
};

/// Rewrites both width-`W` windows at local index `at` to their common RVA
/// when value − biased base agrees on the two sides (eq. 1, mod 2^(8W)).
template <std::uint32_t W>
bool try_rewrite(MutableByteView a, MutableByteView b, std::size_t at,
                 std::uint64_t eb1, std::uint64_t eb2) {
  if constexpr (W == 8) {
    const std::uint64_t rva1 = load_le64(a, at) - eb1;
    const std::uint64_t rva2 = load_le64(b, at) - eb2;
    if (rva1 != rva2) {
      return false;
    }
    store_le64(a, at, rva1);
    store_le64(b, at, rva2);
  } else {
    // Also the truncated store (R_X86_64_32S shape): only the low dword of
    // the absolute address landed in the image; subtract the biased
    // base's low dword, mod 2^32 — wraps cancel exactly like the PE case.
    const std::uint32_t rva1 =
        load_le32_at(a, at) - static_cast<std::uint32_t>(eb1);
    const std::uint32_t rva2 =
        load_le32_at(b, at) - static_cast<std::uint32_t>(eb2);
    if (rva1 != rva2) {
      return false;
    }
    store_le32_at(a, at, rva1);
    store_le32_at(b, at, rva2);
  }
  return true;
}

/// Algorithm 2's candidate-window scan, the one implementation every entry
/// point runs.  `s1`/`s2` hold bytes [origin, origin + s1.size()) of two
/// sections whose common length is `common`; the scan starts at absolute
/// position `from`.  A full run passes the whole sections (origin 0) and
/// no `resync`.  Returns where the scan stopped and whether that stop is a
/// resynchronisation point (or the section end); false means a step needed
/// bytes outside the slice.
template <std::uint32_t W>
ResumedRun scan(MutableByteView s1, MutableByteView s2, std::size_t origin,
                std::size_t common, std::uint32_t offset, std::uint64_t eb1,
                std::uint64_t eb2, std::uint32_t alt_width, std::size_t from,
                const Resync* resync, std::vector<FixupWindow>* windows) {
  ResumedRun run;
  RvaAdjustResult& result = run.counts;
  const std::size_t n = s1.size();
  const std::size_t end = origin + n;
  std::size_t pos = from;
  for (;;) {
    if (resync != nullptr &&
        resync->reached(pos, s1, s2, origin, run.stop)) {
      run.synced = true;
      return run;
    }
    // The kernel XORs 32 bytes at a time and only a differing step takes
    // a branch.
    const std::size_t j =
        origin + simd::mismatch(s1.data(), s2.data(), n, pos - origin);
    if (j == end) {
      run.stop = end;
      run.synced = end == common;
      return run;
    }
    // Candidate absolute address starts `offset - 1` bytes before the
    // first differing byte (Algorithm 2 lines 13-14: j - offset + 1).
    if (j + 1 < offset) {
      // Difference too close to the section start for a full address.
      ++result.unresolved_diffs;
      pos = j + 1;
      continue;
    }
    const std::size_t start = j - (offset - 1);
    if (start < origin || std::min(start + W, common) > end) {
      run.stop = pos;  // the window's bytes lie outside the slice
      return run;
    }
    std::uint32_t width = 0;
    if (start + W <= common &&
        try_rewrite<W>(s1, s2, start - origin, eb1, eb2)) {
      width = W;
    } else if (alt_width != 0 && start + alt_width <= common &&
               try_rewrite<4>(s1, s2, start - origin, eb1, eb2)) {
      width = alt_width;
    }
    if (width != 0) {
      // Consistent relocation: both windows now hold the common RVA
      // (lines 17-19); resume after the rewritten window (line 22 intent).
      ++result.adjusted;
      if (windows != nullptr) {
        windows->push_back({static_cast<std::uint32_t>(start), width});
      }
      pos = start + width;
    } else {
      // Genuine content divergence (or a window cut off by the section
      // end) — leave the bytes for the hash to catch.
      ++result.unresolved_diffs;
      pos = j + 1;
    }
  }
}

void check_policy(const FixupPolicy& fixups) {
  MC_CHECK(fixups.width == 8 || fixups.width == 4,
           "FixupPolicy width must be 4 or 8");
  MC_CHECK(fixups.alt_width == 0 || fixups.alt_width == 4,
           "FixupPolicy alt_width must be 0 or 4");
}

/// A full run of `fixups`' scan over the common prefix of two sections.
RvaAdjustResult full_run(MutableByteView section1, std::uint32_t base1,
                         MutableByteView section2, std::uint32_t base2,
                         const FixupPolicy& fixups,
                         std::vector<FixupWindow>* windows) {
  if (windows != nullptr) {
    windows->clear();
  }
  RvaAdjustResult result;
  const std::size_t common = std::min(section1.size(), section2.size());
  result.unresolved_diffs += static_cast<std::uint32_t>(
      std::max(section1.size(), section2.size()) - common);

  // The biases are equal on both sides, so the first-differing-byte offset
  // of the biased 64-bit bases equals the 32-bit computation.
  const std::uint32_t offset = base_difference_offset(base1, base2);
  if (offset == 0) {
    result.unresolved_diffs +=
        count_differing_bytes(section1, section2, common);
    return result;
  }
  const MutableByteView s1 = section1.first(common);
  const MutableByteView s2 = section2.first(common);
  const std::uint64_t eb1 = fixups.biased_base(base1);
  const std::uint64_t eb2 = fixups.biased_base(base2);
  const ResumedRun run =
      fixups.width == 8
          ? scan<8>(s1, s2, 0, common, offset, eb1, eb2, fixups.alt_width, 0,
                    nullptr, windows)
          : scan<4>(s1, s2, 0, common, offset, eb1, eb2, fixups.alt_width, 0,
                    nullptr, windows);
  result.adjusted += run.counts.adjusted;
  result.unresolved_diffs += run.counts.unresolved_diffs;
  return result;
}

}  // namespace

RvaAdjustResult adjust_rvas(MutableByteView section1, std::uint32_t base1,
                            MutableByteView section2, std::uint32_t base2,
                            std::vector<FixupWindow>* windows) {
  return full_run(section1, base1, section2, base2, FixupPolicy{}, windows);
}

RvaAdjustResult adjust_fixups(MutableByteView section1, std::uint32_t base1,
                              MutableByteView section2, std::uint32_t base2,
                              const FixupPolicy& fixups,
                              std::vector<FixupWindow>* windows) {
  check_policy(fixups);
  return full_run(section1, base1, section2, base2, fixups, windows);
}

ResumedRun adjust_fixups_resumed(MutableByteView section1, std::uint32_t base1,
                                 MutableByteView section2, std::uint32_t base2,
                                 const FixupPolicy& fixups, std::size_t origin,
                                 std::size_t common, std::size_t from,
                                 std::size_t until,
                                 const std::vector<std::uint32_t>& starts) {
  check_policy(fixups);
  const std::uint32_t offset = base_difference_offset(base1, base2);
  MC_CHECK(offset != 0, "adjust_fixups_resumed needs distinct bases");
  MC_CHECK(section1.size() == section2.size() &&
               origin + section1.size() <= common && origin <= from &&
               from <= origin + section1.size(),
           "adjust_fixups_resumed slice out of range");
  const Resync resync{&starts, fixups.width, until};
  const std::uint64_t eb1 = fixups.biased_base(base1);
  const std::uint64_t eb2 = fixups.biased_base(base2);
  return fixups.width == 8
             ? scan<8>(section1, section2, origin, common, offset, eb1, eb2,
                       fixups.alt_width, from, &resync, nullptr)
             : scan<4>(section1, section2, origin, common, offset, eb1, eb2,
                       fixups.alt_width, from, &resync, nullptr);
}

std::optional<WindowMap> WindowMap::from_run(
    const FixupPolicy& policy, std::size_t size,
    const std::vector<FixupWindow>& windows) {
  WindowMap map(policy, size);
  map.starts_.reserve(windows.size());
  for (const FixupWindow& w : windows) {
    if (w.width != policy.width || std::size_t{w.start} + w.width > size) {
      return std::nullopt;
    }
    if (!map.starts_.empty() && w.start < map.starts_.back() + policy.width) {
      return std::nullopt;
    }
    map.starts_.push_back(w.start);
  }
  return map;
}

}  // namespace mc::core
