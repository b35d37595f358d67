// The byte-compare kernel and the code on top of it, checked against
// references that share nothing with it: util/simd's word kernel against a
// byte loop local to this file, and adjust_rvas (which scans with the
// kernel) against oracle_algorithm2 from tests/oracle.hpp, a byte-at-a-time
// transcription of the paper's Algorithm 2.
//
// Coverage: the raw mismatch kernel across sizes/alignments/diff positions,
// adjust_rvas on planted relocations, length-mismatch tails and relocation
// candidates straddling a page boundary inside a scatter-gather GuestView,
// and scattered vs one-segment item content (hash/equality).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/hasher.hpp"
#include "modchecker/item_content.hpp"
#include "modchecker/rva_adjust.hpp"
#include "oracle.hpp"
#include "util/arena.hpp"
#include "util/bytes.hpp"
#include "util/simd.hpp"
#include "vmi/guest_view.hpp"

namespace {

using namespace mc;
using namespace mc::core;

/// Deterministic filler (no global RNG: runs must replay bit-identically).
Bytes patterned(std::size_t n, std::uint32_t seed) {
  Bytes out(n);
  std::uint32_t state = seed * 2654435761u + 1u;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 1664525u + 1013904223u;
    out[i] = static_cast<std::uint8_t>(state >> 24);
  }
  return out;
}

/// The byte loop the kernel is checked against.
std::size_t scalar_mismatch(const std::uint8_t* a, const std::uint8_t* b,
                            std::size_t n, std::size_t from) {
  for (std::size_t i = from; i < n; ++i) {
    if (a[i] != b[i]) {
      return i;
    }
  }
  return n;
}

// ---- raw kernels --------------------------------------------------------------

TEST(SimdKernels, MismatchMatchesScalarAcrossSizesOffsetsAndDiffs) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{31},
                              std::size_t{32}, std::size_t{33}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{255}, std::size_t{4096}}) {
    const Bytes a = patterned(n, 7);
    for (const std::size_t diff :
         {std::size_t{0}, n / 3, n / 2, n - 1, n}) {  // n = no difference
      Bytes b = a;
      if (diff < n) {
        b[diff] ^= 0x5A;
      }
      for (const std::size_t from :
           {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7},
            std::size_t{13}, std::size_t{64}}) {
        if (from > n) {
          continue;
        }
        const std::size_t want = scalar_mismatch(a.data(), b.data(), n, from);
        EXPECT_EQ(simd::mismatch(a.data(), b.data(), n, from), want)
            << "n=" << n << " diff=" << diff << " from=" << from;
      }
    }
  }
}

TEST(SimdKernels, MismatchHandlesUnalignedBasePointers) {
  const Bytes backing_a = patterned(512 + 1, 11);
  Bytes backing_b = backing_a;
  backing_b[300] ^= 0xFF;
  // Shift both streams off word alignment by one byte.
  const std::uint8_t* a = backing_a.data() + 1;
  const std::uint8_t* b = backing_b.data() + 1;
  const std::size_t n = 512;
  const std::size_t want = scalar_mismatch(a, b, n, 0);
  EXPECT_EQ(simd::mismatch(a, b, n, 0), want);
  // A difference at each byte of one 32-byte step and of the word after it.
  for (std::size_t diff = 256; diff < 256 + 40; ++diff) {
    Bytes c = backing_a;
    c[diff + 1] ^= 0x01;
    EXPECT_EQ(simd::mismatch(a, c.data() + 1, n, 0), diff);
    EXPECT_EQ(simd::mismatch(a, c.data() + 1, n, diff), diff);
    EXPECT_EQ(simd::mismatch(a, c.data() + 1, n, diff + 1), n);
  }
}

TEST(SimdKernels, EqualAgreesWithByteComparison) {
  const Bytes a = patterned(1000, 3);
  Bytes b = a;
  EXPECT_TRUE(simd::equal(a, b));
  b[999] ^= 1;
  EXPECT_FALSE(simd::equal(a, b));
  EXPECT_FALSE(simd::equal(a, ByteView(a.data(), 999)));  // size mismatch
  EXPECT_TRUE(simd::equal(ByteView(), ByteView()));
  EXPECT_FALSE(simd::equal(ByteView(), ByteView(a.data(), 1)));
}

// ---- Algorithm 2 against the oracle ------------------------------------------

/// Builds a synthetic "loaded section": patterned content with 4-byte
/// absolute addresses (base + rva) planted at the given offsets.
Bytes loaded_section(std::size_t n, std::uint32_t base,
                     const std::vector<std::size_t>& reloc_offsets) {
  Bytes s = patterned(n, 42);
  for (const std::size_t off : reloc_offsets) {
    store_le32(MutableByteView(s), off,
               base + 0x1000u + static_cast<std::uint32_t>(off));
  }
  return s;
}

/// Runs adjust_rvas and the oracle's PE32 Algorithm 2 on copies of the same
/// pair; both must rewrite the same bytes, and adjust_rvas must count one
/// adjustment per oracle window.  Returns adjust_rvas' counters.
RvaAdjustResult expect_matches_oracle(const Bytes& a0, std::uint32_t base1,
                                      const Bytes& b0, std::uint32_t base2) {
  Bytes a = a0;
  Bytes b = b0;
  const RvaAdjustResult result =
      adjust_rvas(MutableByteView(a), base1, MutableByteView(b), base2);
  Bytes oa = a0;
  Bytes ob = b0;
  std::vector<std::size_t> windows;
  test::oracle_algorithm2(oa, base1, ob, base2, 4, 0, 0, &windows);
  EXPECT_EQ(a, oa);
  EXPECT_EQ(b, ob);
  EXPECT_EQ(result.adjusted, windows.size());
  return result;
}

TEST(SimdRva, AdjustRvasBitIdenticalAtEveryDispatchLevel) {
  const std::uint32_t base1 = 0xF820CC00u;
  const std::uint32_t base2 = 0x7090CC00u;  // shares the low bytes (offset 3)
  // Relocations at aligned, unaligned and buffer-edge offsets.
  const std::vector<std::size_t> relocs = {0, 5, 64, 121, 1000, 2043, 4091};
  const Bytes a = loaded_section(4096, base1, relocs);
  Bytes b = loaded_section(4096, base2, relocs);
  b[512] ^= 0x40;  // one genuine divergence the algorithm must NOT resolve

  const RvaAdjustResult result = expect_matches_oracle(a, base1, b, base2);
  EXPECT_EQ(result.adjusted, relocs.size());
  // The flipped byte is the one difference no window resolves.
  EXPECT_EQ(result.unresolved_diffs, 1u);
}

TEST(SimdRva, LengthMismatchTailsCountIdentically) {
  const std::uint32_t base1 = 0x10000000u;
  const std::uint32_t base2 = 0x20000000u;
  const Bytes a = loaded_section(1003, base1, {8, 500});
  const Bytes b = loaded_section(900, base2, {8, 500});
  const RvaAdjustResult result = expect_matches_oracle(a, base1, b, base2);
  EXPECT_EQ(result.adjusted, 2u);
  // The common prefix resolves; each of the 103 trailing bytes counts.
  EXPECT_EQ(result.unresolved_diffs, 103u);
}

TEST(SimdRva, RelocationStraddlingPageBoundaryInGuestView) {
  // Two simulated 4KiB frames, with a relocation window that starts 2
  // bytes before the frame boundary — the regression this guards: the
  // 4-byte candidate load must see the logically contiguous image even
  // though the view's segments are separate host allocations.
  constexpr std::size_t kPage = 4096;
  const std::uint32_t base1 = 0x00CC20F8u;
  const std::uint32_t base2 = 0x00CC9070u;
  const Bytes image1 =
      loaded_section(2 * kPage, base1, {100, kPage - 2, 6000});
  const Bytes image2 =
      loaded_section(2 * kPage, base2, {100, kPage - 2, 6000});

  // Frame-split copies backing the view (separate buffers on purpose).
  const Bytes frame_lo(image1.begin(), image1.begin() + kPage);
  const Bytes frame_hi(image1.begin() + kPage, image1.end());
  vmi::GuestView view;
  view.append(ByteView(frame_lo));
  view.append(ByteView(frame_hi));
  ASSERT_FALSE(view.contiguous());
  ASSERT_EQ(view.size(), image1.size());

  core::IntegrityItem item;
  item.name = ".text";
  item.rva_sensitive = true;
  item.view = view;

  ArenaScope scope(scratch_arena());
  const MutableByteView sub = arena_content_copy(scratch_arena(), item);
  const Bytes sub_copy(sub.begin(), sub.end());
  ASSERT_EQ(sub_copy, image1);
  const RvaAdjustResult result =
      expect_matches_oracle(sub_copy, base1, image2, base2);
  EXPECT_EQ(result.adjusted, 3u);
  EXPECT_EQ(result.unresolved_diffs, 0u);

  // Fully normalized: both sides hold the same bytes afterwards.
  Bytes x = sub_copy;
  Bytes y = image2;
  adjust_rvas(MutableByteView(x), base1, MutableByteView(y), base2);
  EXPECT_EQ(x, y);
}

// ---- contiguous vs scattered item content ------------------------------------

TEST(SimdItems, ViewBackedContentHashesAndCrcsMatchOwned) {
  // The "owned" side is one segment over one buffer (the contiguous fast
  // paths); the viewed side scatters the same content.
  const Bytes content = patterned(10000, 99);
  core::IntegrityItem owned;
  owned.name = ".rodata";
  owned.view = ByteView(content);
  ASSERT_TRUE(owned.view.contiguous());

  // Same logical content scattered over three separate segments.
  const Bytes seg1(content.begin(), content.begin() + 4096);
  const Bytes seg2(content.begin() + 4096, content.begin() + 8192);
  const Bytes seg3(content.begin() + 8192, content.end());
  core::IntegrityItem viewed;
  viewed.name = ".rodata";
  viewed.view.append(ByteView(seg1));
  viewed.view.append(ByteView(seg2));
  viewed.view.append(ByteView(seg3));
  ASSERT_FALSE(viewed.view.contiguous());

  for (const crypto::HashAlgorithm alg :
       {crypto::HashAlgorithm::kMd5, crypto::HashAlgorithm::kSha1,
        crypto::HashAlgorithm::kSha256}) {
    EXPECT_EQ(hash_item_content(alg, owned), hash_item_content(alg, viewed));
    EXPECT_EQ(hash_item_content(alg, owned),
              crypto::hash_bytes(alg, content));
  }

  EXPECT_TRUE(item_content_equal(owned, viewed));
  EXPECT_TRUE(item_content_equal(viewed, viewed));

  // A single-byte flip in any segment must be seen.
  Bytes seg2_bad = seg2;
  seg2_bad[17] ^= 0x80;
  core::IntegrityItem tampered;
  tampered.view.append(ByteView(seg1));
  tampered.view.append(ByteView(seg2_bad));
  tampered.view.append(ByteView(seg3));
  EXPECT_FALSE(item_content_equal(owned, tampered));
  EXPECT_NE(hash_item_content(crypto::HashAlgorithm::kMd5, owned),
            hash_item_content(crypto::HashAlgorithm::kMd5, tampered));
}

}  // namespace
