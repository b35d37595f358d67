// Differential suite for the vectorized hot path: every word-wise kernel
// (SWAR / AVX2 mismatch scan, Algorithm 2's diff-and-resolve loop, the
// span-streaming item digests) must be *bit-identical* to the forced-scalar
// implementation — same rewritten bytes, same counters, same verdicts.
//
// Coverage: the raw mismatch kernel across sizes/alignments/diff positions,
// adjust_rvas at every dispatch level, relocation candidates straddling a
// page boundary inside a scatter-gather GuestView, scattered vs one-segment
// item content (hash/equality), and whole-pool scans of the paper's
// E1-E4 attacks with vectorization on vs. forced off.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attacks/header_tamper.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/stub_patch.hpp"
#include "cloud/environment.hpp"
#include "crypto/hasher.hpp"
#include "modchecker/item_content.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/rva_adjust.hpp"
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

/// Reference implementation the kernels are checked against.
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
            << "n=" << n << " diff=" << diff << " from=" << from << " level="
            << simd::level_name(simd::active_level());
        EXPECT_EQ(simd::mismatch(a.data(), b.data(), n, from,
                                 simd::Policy::kScalar),
                  want);
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
  EXPECT_EQ(simd::mismatch(a, b, n, 0, simd::Policy::kScalar), want);
}

TEST(SimdKernels, EqualAgreesWithByteComparison) {
  const Bytes a = patterned(1000, 3);
  Bytes b = a;
  EXPECT_TRUE(simd::equal(a, b));
  EXPECT_TRUE(simd::equal(a, b, simd::Policy::kScalar));
  b[999] ^= 1;
  EXPECT_FALSE(simd::equal(a, b));
  EXPECT_FALSE(simd::equal(a, b, simd::Policy::kScalar));
  EXPECT_FALSE(simd::equal(a, ByteView(a.data(), 999)));  // size mismatch
}

TEST(SimdKernels, ForceScalarPinsTheDispatchLevel) {
  const bool saved = simd::force_scalar();
  simd::set_force_scalar(true);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(simd::Policy::kScalar), simd::Level::kScalar);
  simd::set_force_scalar(false);
  // Whatever the auto level is on this host, an explicit kScalar call
  // stays scalar.
  EXPECT_EQ(simd::active_level(simd::Policy::kScalar), simd::Level::kScalar);
  simd::set_force_scalar(saved);
}

// ---- Algorithm 2 across dispatch levels ---------------------------------------

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

struct AdjustRun {
  Bytes a;
  Bytes b;
  RvaAdjustResult result;
};

AdjustRun run_adjust(const Bytes& a0, std::uint32_t base1, const Bytes& b0,
                     std::uint32_t base2, simd::Policy policy) {
  AdjustRun run;
  run.a = a0;
  run.b = b0;
  run.result = adjust_rvas(MutableByteView(run.a), base1,
                           MutableByteView(run.b), base2, policy);
  return run;
}

TEST(SimdRva, AdjustRvasBitIdenticalAtEveryDispatchLevel) {
  const std::uint32_t base1 = 0xF820CC00u;
  const std::uint32_t base2 = 0x7090CC00u;  // shares the low bytes (offset 3)
  // Relocations at aligned, unaligned and buffer-edge offsets.
  const std::vector<std::size_t> relocs = {0, 5, 64, 121, 1000, 2043, 4091};
  const Bytes a = loaded_section(4096, base1, relocs);
  Bytes b = loaded_section(4096, base2, relocs);
  b[512] ^= 0x40;  // one genuine divergence the algorithm must NOT resolve

  const AdjustRun vec = run_adjust(a, base1, b, base2, simd::Policy::kAuto);
  const AdjustRun sca = run_adjust(a, base1, b, base2, simd::Policy::kScalar);

  EXPECT_EQ(vec.result.adjusted, sca.result.adjusted);
  EXPECT_EQ(vec.result.unresolved_diffs, sca.result.unresolved_diffs);
  EXPECT_EQ(vec.a, sca.a);
  EXPECT_EQ(vec.b, sca.b);

  EXPECT_EQ(sca.result.adjusted, relocs.size());
  EXPECT_GE(sca.result.unresolved_diffs, 1u);
}

TEST(SimdRva, LengthMismatchTailsCountIdentically) {
  const std::uint32_t base1 = 0x10000000u;
  const std::uint32_t base2 = 0x20000000u;
  const Bytes a = loaded_section(1003, base1, {8, 500});
  const Bytes b = loaded_section(900, base2, {8, 500});
  const AdjustRun vec = run_adjust(a, base1, b, base2, simd::Policy::kAuto);
  const AdjustRun sca = run_adjust(a, base1, b, base2, simd::Policy::kScalar);
  EXPECT_EQ(vec.result.adjusted, sca.result.adjusted);
  EXPECT_EQ(vec.result.unresolved_diffs, sca.result.unresolved_diffs);
  EXPECT_EQ(vec.a, sca.a);
  EXPECT_EQ(vec.b, sca.b);
}

TEST(SimdRva, RelocationStraddlingPageBoundaryInGuestView) {
  // Two simulated 4KiB frames, with a relocation window that starts 2
  // bytes before the frame boundary — the regression this guards: the
  // 4-byte candidate load must see the logically contiguous image even
  // though the view's segments are separate host allocations.
  constexpr std::size_t kPage = 4096;
  const std::uint32_t base1 = 0x00CC20F8u;
  const std::uint32_t base2 = 0x00CC9070u;
  Bytes image1 = loaded_section(2 * kPage, base1, {100, kPage - 2, 6000});
  const Bytes image2 = loaded_section(2 * kPage, base2, {100, kPage - 2, 6000});

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
  MutableByteView sub = arena_content_copy(scratch_arena(), item);
  Bytes ref = image2;
  for (const simd::Policy policy :
       {simd::Policy::kAuto, simd::Policy::kScalar}) {
    Bytes sub_copy(sub.begin(), sub.end());
    Bytes ref_copy = ref;
    const RvaAdjustResult adj =
        adjust_rvas(MutableByteView(sub_copy), base1,
                    MutableByteView(ref_copy), base2, policy);
    EXPECT_EQ(adj.adjusted, 3u);
    EXPECT_EQ(adj.unresolved_diffs, 0u);
    EXPECT_EQ(sub_copy, ref_copy);  // fully normalized
  }
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
  EXPECT_TRUE(item_content_equal(owned, viewed, simd::Policy::kScalar));
  EXPECT_TRUE(item_content_equal(viewed, viewed));

  // A single-byte flip in any segment must be seen at every level.
  Bytes seg2_bad = seg2;
  seg2_bad[17] ^= 0x80;
  core::IntegrityItem tampered;
  tampered.view.append(ByteView(seg1));
  tampered.view.append(ByteView(seg2_bad));
  tampered.view.append(ByteView(seg3));
  EXPECT_FALSE(item_content_equal(owned, tampered));
  EXPECT_FALSE(item_content_equal(owned, tampered, simd::Policy::kScalar));
  EXPECT_NE(hash_item_content(crypto::HashAlgorithm::kMd5, owned),
            hash_item_content(crypto::HashAlgorithm::kMd5, tampered));
}

// ---- whole-pool differential: vectorized vs forced scalar ---------------------

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

void expect_same_reports(const PoolScanReport& a, const PoolScanReport& b) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i].vm, b.verdicts[i].vm);
    EXPECT_EQ(a.verdicts[i].successes, b.verdicts[i].successes)
        << "vm " << a.verdicts[i].vm;
    EXPECT_EQ(a.verdicts[i].total, b.verdicts[i].total);
    EXPECT_EQ(a.verdicts[i].clean, b.verdicts[i].clean)
        << "vm " << a.verdicts[i].vm;
  }
  EXPECT_EQ(a.fastpath_pairs, b.fastpath_pairs);
  EXPECT_EQ(a.fallback_pairs, b.fallback_pairs);
  EXPECT_EQ(a.cpu_times.total(), b.cpu_times.total())
      << "dispatch level perturbed simulated cost";
}

/// Scans with the process-wide switch off (runtime dispatch) and on
/// (every kernel scalar); both reports must be bit-identical, including
/// simulated times.
void scan_both_dispatch_levels(cloud::CloudEnvironment& env,
                               const std::string& module) {
  const bool saved = simd::force_scalar();
  simd::set_force_scalar(false);
  const auto a = ModChecker(env.hypervisor()).scan_pool(module, env.guests());
  simd::set_force_scalar(true);
  const auto b = ModChecker(env.hypervisor()).scan_pool(module, env.guests());
  simd::set_force_scalar(saved);
  expect_same_reports(a, b);
}

TEST(SimdPool, CleanPoolVerdictsIdentical) {
  auto env = make_env(6);
  scan_both_dispatch_levels(*env, "hal.dll");
  scan_both_dispatch_levels(*env, "http.sys");
}

TEST(SimdPool, E1OpcodeReplaceVerdictsIdentical) {
  auto env = make_env(6);
  attacks::OpcodeReplaceAttack{}.apply(*env, env->guests()[2], "hal.dll");
  scan_both_dispatch_levels(*env, "hal.dll");
}

TEST(SimdPool, E2InlineHookVerdictsIdentical) {
  auto env = make_env(7);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[4], "hal.dll");
  scan_both_dispatch_levels(*env, "hal.dll");
}

TEST(SimdPool, E3StubPatchVerdictsIdentical) {
  auto env = make_env(5);
  attacks::StubPatchAttack{}.apply(*env, env->guests()[1], "ntfs.sys");
  scan_both_dispatch_levels(*env, "ntfs.sys");
}

TEST(SimdPool, E4HeaderTamperVerdictsIdentical) {
  auto env = make_env(5);
  attacks::HeaderTamperAttack{}.apply(*env, env->guests()[3], "ntfs.sys");
  scan_both_dispatch_levels(*env, "ntfs.sys");
}

}  // namespace
