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
// them all.  Word-at-a-time with a per-word byte population count — the
// scan touches every byte exactly once either way, so the scalar fallback
// is byte-for-byte equivalent.
std::uint32_t count_differing_bytes(ByteView a, ByteView b, std::size_t n,
                                    simd::Policy policy) {
  MC_CHECK(n <= a.size() && n <= b.size(),
           "count_differing_bytes out of range");
  std::uint32_t diffs = 0;
  std::size_t j = 0;
  if (simd::active_level(policy) != simd::Level::kScalar) {
    for (; j + 8 <= n; j += 8) {
      const std::uint64_t x =
          load_word64(a.data() + j) ^ load_word64(b.data() + j);
      if (x != 0) {
        diffs += nonzero_byte_count(x);
      }
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

RvaAdjustResult adjust_rvas(MutableByteView section1, std::uint32_t base1,
                            MutableByteView section2, std::uint32_t base2,
                            simd::Policy policy,
                            std::vector<FixupWindow>* windows) {
  RvaAdjustResult result;
  if (windows != nullptr) {
    windows->clear();
  }

  const std::size_t common = std::min(section1.size(), section2.size());
  result.unresolved_diffs += static_cast<std::uint32_t>(
      std::max(section1.size(), section2.size()) - common);

  const std::uint32_t offset = base_difference_offset(base1, base2);
  if (offset == 0) {
    result.unresolved_diffs +=
        count_differing_bytes(section1, section2, common, policy);
    return result;
  }

  // Lockstep diff scan: the kernel XORs eight (or thirty-two) bytes at a
  // time and only a differing word takes a branch; the candidate window
  // logic below is untouched from the scalar algorithm, so counting and
  // rewrite semantics are bit-identical at every dispatch level.
  std::size_t j = simd::mismatch(section1.data(), section2.data(), common, 0,
                                 policy);
  while (j < common) {
    // Candidate absolute address starts `offset - 1` bytes before the
    // first differing byte (Algorithm 2 lines 13-14: j - offset + 1).
    if (j + 1 < offset) {
      // Difference too close to the section start for a full address.
      ++result.unresolved_diffs;
      j = simd::mismatch(section1.data(), section2.data(), common, j + 1,
                         policy);
      continue;
    }
    const std::size_t start = j - (offset - 1);
    if (start + 4 > common) {
      // Difference too close to the section end.
      ++result.unresolved_diffs;
      j = simd::mismatch(section1.data(), section2.data(), common, j + 1,
                         policy);
      continue;
    }

    const std::uint32_t abs1 = load_le32_at(section1, start);
    const std::uint32_t abs2 = load_le32_at(section2, start);
    const std::uint32_t rva1 = abs1 - base1;  // eq. (1); wraps are fine
    const std::uint32_t rva2 = abs2 - base2;

    if (rva1 == rva2) {
      // Consistent relocation: replace both absolute addresses with the
      // common RVA (lines 17-19).
      store_le32_at(section1, start, rva1);
      store_le32_at(section2, start, rva2);
      ++result.adjusted;
      if (windows != nullptr) {
        windows->push_back({static_cast<std::uint32_t>(start), 4});
      }
      // Resume after the rewritten window (line 22 intent).
      j = simd::mismatch(section1.data(), section2.data(), common, start + 4,
                         policy);
    } else {
      // Genuine content divergence — leave bytes for the hash to catch.
      ++result.unresolved_diffs;
      j = simd::mismatch(section1.data(), section2.data(), common, j + 1,
                         policy);
    }
  }
  return result;
}

RvaAdjustResult adjust_fixups(MutableByteView section1, std::uint32_t base1,
                              MutableByteView section2, std::uint32_t base2,
                              const FixupPolicy& fixups, simd::Policy policy,
                              std::vector<FixupWindow>* windows) {
  if (fixups.pe32_default()) {
    // The historical path, verbatim: PE32 callers keep bit-identical
    // rewrites and counters through the exact same code.
    return adjust_rvas(section1, base1, section2, base2, policy, windows);
  }
  if (windows != nullptr) {
    windows->clear();
  }
  MC_CHECK(fixups.width == 8 || fixups.width == 4,
           "FixupPolicy width must be 4 or 8");
  MC_CHECK(fixups.alt_width == 0 || fixups.alt_width == 4,
           "FixupPolicy alt_width must be 0 or 4");

  RvaAdjustResult result;
  const std::size_t common = std::min(section1.size(), section2.size());
  result.unresolved_diffs += static_cast<std::uint32_t>(
      std::max(section1.size(), section2.size()) - common);

  // The biases are equal on both sides, so the first-differing-byte offset
  // of the biased 64-bit bases equals the 32-bit computation.
  const std::uint32_t offset = base_difference_offset(base1, base2);
  if (offset == 0) {
    result.unresolved_diffs +=
        count_differing_bytes(section1, section2, common, policy);
    return result;
  }
  const std::uint64_t eb1 = fixups.biased_base(base1);
  const std::uint64_t eb2 = fixups.biased_base(base2);

  // Tests the width-`w` window at `start`: recover RVA = value − biased
  // base on each side (eq. 1 widened); equal RVAs mean the loader made
  // this difference — rewrite both windows to the common RVA.
  const auto try_rewrite = [&](std::size_t start, std::uint32_t w) -> bool {
    if (start + w > common) {
      return false;
    }
    if (w == 8) {
      const std::uint64_t rva1 = load_le64(section1, start) - eb1;
      const std::uint64_t rva2 = load_le64(section2, start) - eb2;
      if (rva1 != rva2) {
        return false;
      }
      store_le64(section1, start, rva1);
      store_le64(section2, start, rva2);
    } else {
      // Truncated store (R_X86_64_32S shape): only the low dword of the
      // absolute address landed in the image; subtract the biased base's
      // low dword, mod 2^32 — wraps cancel exactly like the PE case.
      const std::uint32_t rva1 =
          load_le32_at(section1, start) - static_cast<std::uint32_t>(eb1);
      const std::uint32_t rva2 =
          load_le32_at(section2, start) - static_cast<std::uint32_t>(eb2);
      if (rva1 != rva2) {
        return false;
      }
      store_le32_at(section1, start, rva1);
      store_le32_at(section2, start, rva2);
    }
    return true;
  };

  std::size_t j =
      simd::mismatch(section1.data(), section2.data(), common, 0, policy);
  while (j < common) {
    if (j + 1 < offset) {
      // Difference too close to the section start for a full address.
      ++result.unresolved_diffs;
      j = simd::mismatch(section1.data(), section2.data(), common, j + 1,
                         policy);
      continue;
    }
    const std::size_t start = j - (offset - 1);
    std::uint32_t width = 0;
    if (try_rewrite(start, fixups.width)) {
      width = fixups.width;
    } else if (fixups.alt_width != 0 && try_rewrite(start, fixups.alt_width)) {
      width = fixups.alt_width;
    }
    if (width != 0) {
      ++result.adjusted;
      if (windows != nullptr) {
        windows->push_back({static_cast<std::uint32_t>(start), width});
      }
      j = simd::mismatch(section1.data(), section2.data(), common,
                         start + width, policy);
    } else {
      // Genuine content divergence — leave bytes for the hash to catch.
      ++result.unresolved_diffs;
      j = simd::mismatch(section1.data(), section2.data(), common, j + 1,
                         policy);
    }
  }
  return result;
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
