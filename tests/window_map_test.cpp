// Algorithm 2 once per pool: the relocation-window map.
//
// The run that establishes an item's canonical form C records the windows
// it rewrote (adjust_fixups' `windows` out-parameter, WindowMap::from_run);
// a later copy X is settled by relocated_content_equal instead of another
// run.  The property pinned here: whenever a map is usable, "X passes the
// map check" holds exactly when "adjust_fixups(R, X) leaves no unresolved
// difference and X' == C" — so a map hit is always today's positive answer,
// and everything else goes to today's path for today's answer.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "modchecker/canonical.hpp"
#include "modchecker/item_content.hpp"
#include "modchecker/rva_adjust.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "vmi/cost_model.hpp"

namespace {

using namespace mc;
using namespace mc::core;

constexpr FixupPolicy kPe32{};
constexpr FixupPolicy kElf64{8, 4, 0xFFFFFFFF00000000ull};

/// C with every window (policy width) holding its value plus the biased
/// base, mod 2^width — what the loader leaves at `base`.
Bytes relocate(const Bytes& canonical, const std::vector<std::uint32_t>& starts,
               std::uint32_t base, const FixupPolicy& policy) {
  Bytes out = canonical;
  const std::uint64_t biased = policy.biased_base(base);
  for (const std::uint32_t s : starts) {
    if (policy.width == 8) {
      store_le64(out, s, load_le64(out, s) + biased);
    } else {
      store_le32(out, s, load_le32(out, s) + static_cast<std::uint32_t>(biased));
    }
  }
  return out;
}

IntegrityItem owned_item(Bytes bytes) {
  IntegrityItem item;
  item.kind = ItemKind::kSectionData;
  item.name = ".text";
  item.rva_sensitive = true;
  item.bytes = std::move(bytes);
  return item;
}

/// `content` as a view-backed item split at `cuts`: the pieces sit in
/// `backing` one gap byte apart, so no two segments coalesce.
IntegrityItem view_item(const Bytes& content,
                        const std::vector<std::size_t>& cuts, Bytes& backing) {
  backing.assign(content.size() + cuts.size() + 1, 0xEE);
  IntegrityItem item = owned_item({});
  std::size_t from = 0;
  std::size_t at = 0;
  std::vector<std::size_t> ends = cuts;
  ends.push_back(content.size());
  for (const std::size_t to : ends) {
    for (std::size_t k = from; k < to; ++k) {
      backing[at + (k - from)] = content[k];
    }
    item.view.append(ByteView(backing).subspan(at, to - from));
    at += (to - from) + 1;
    from = to;
  }
  return item;
}

/// Today's answer: Algorithm 2 against the reference leaves no unresolved
/// difference and the copy equal to C.
bool algorithm2_reduces_to(const Bytes& reference, std::uint32_t ref_base,
                           const Bytes& copy, std::uint32_t copy_base,
                           const FixupPolicy& policy, const Bytes& canonical) {
  Bytes r = reference;
  Bytes x = copy;
  const RvaAdjustResult adj = adjust_fixups(MutableByteView(r), ref_base,
                                            MutableByteView(x), copy_base,
                                            policy);
  return adj.unresolved_diffs == 0 && x == canonical;
}

/// One established canonical form: the reference, C and the map that the
/// establishing run (R against a copy at `est_base`) recorded.
struct Established {
  Bytes reference;
  Bytes canonical;
  std::vector<FixupWindow> windows;
  std::optional<WindowMap> map;
};

Established establish(const Bytes& canonical_in,
                      const std::vector<std::uint32_t>& starts,
                      std::uint32_t ref_base, std::uint32_t est_base,
                      const FixupPolicy& policy) {
  Established e;
  e.reference = relocate(canonical_in, starts, ref_base, policy);
  Bytes r = e.reference;
  Bytes x = relocate(canonical_in, starts, est_base, policy);
  const RvaAdjustResult adj =
      adjust_fixups(MutableByteView(r), ref_base, MutableByteView(x), est_base,
                    policy, simd::Policy::kAuto, &e.windows);
  EXPECT_EQ(adj.unresolved_diffs, 0u);
  EXPECT_EQ(adj.adjusted, e.windows.size());
  e.canonical = x;
  e.map = WindowMap::from_run(policy, x.size(), e.windows);
  return e;
}

/// A random base sharing exactly `offset - 1` low bytes with `base`.
std::uint32_t base_at_offset(std::uint32_t base, std::uint32_t offset,
                             Xoshiro256& rng) {
  const std::uint32_t shift = 8 * (offset - 1);
  const std::uint32_t low = static_cast<std::uint32_t>((1ull << shift) - 1);
  const std::uint32_t flip =
      static_cast<std::uint32_t>(1 + rng.below(255)) << shift;
  const std::uint32_t high = static_cast<std::uint32_t>(rng.next()) & ~low &
                             ~(0xFFu << shift);
  const std::uint32_t out =
      (base & low) | ((base ^ flip) & (0xFFu << shift)) | high;
  EXPECT_EQ(base_difference_offset(base, out), offset);
  return out;
}

// ---- the out-parameter ------------------------------------------------------------

TEST(FixupWindows, RecordingChangesNothingAndListsEveryRewrite) {
  Xoshiro256 rng(11);
  Bytes c(512);
  for (auto& b : c) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  const std::vector<std::uint32_t> starts = {0, 4, 40, 97, 300, 508};
  for (const FixupPolicy& policy : {kPe32, kElf64}) {
    std::vector<std::uint32_t> fit;
    for (const std::uint32_t s : starts) {
      if (s + policy.width <= c.size() &&
          (fit.empty() || s >= fit.back() + policy.width)) {
        fit.push_back(s);
      }
    }
    const Bytes r = relocate(c, fit, 0xF8CC2000, policy);
    const Bytes x = relocate(c, fit, 0xF8D0C000, policy);
    Bytes r1 = r, x1 = x, r2 = r, x2 = x;
    std::vector<FixupWindow> windows = {{1, 1}};  // replaced, not appended
    const RvaAdjustResult plain =
        adjust_fixups(MutableByteView(r1), 0xF8CC2000, MutableByteView(x1),
                      0xF8D0C000, policy);
    const RvaAdjustResult recorded = adjust_fixups(
        MutableByteView(r2), 0xF8CC2000, MutableByteView(x2), 0xF8D0C000,
        policy, simd::Policy::kAuto, &windows);
    EXPECT_EQ(plain.adjusted, recorded.adjusted);
    EXPECT_EQ(plain.unresolved_diffs, recorded.unresolved_diffs);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(x1, x2);
    ASSERT_EQ(windows.size(), fit.size());
    for (std::size_t k = 0; k < fit.size(); ++k) {
      EXPECT_EQ(windows[k], (FixupWindow{fit[k], policy.width}));
    }
  }
}

// ---- the four use conditions -------------------------------------------------------

TEST(WindowMapUse, AlternateWidthWindowIsRefused) {
  EXPECT_FALSE(WindowMap::from_run(kElf64, 64, {{0, 8}, {16, 4}}));
  EXPECT_TRUE(WindowMap::from_run(kElf64, 64, {{0, 8}, {16, 8}}));
}

TEST(WindowMapUse, OverlappingWindowsAreRefusedAdjacentAccepted) {
  EXPECT_FALSE(WindowMap::from_run(kPe32, 64, {{0, 4}, {3, 4}}));
  EXPECT_FALSE(WindowMap::from_run(kElf64, 64, {{0, 8}, {7, 8}}));
  const auto adjacent = WindowMap::from_run(kPe32, 64, {{0, 4}, {4, 4}});
  ASSERT_TRUE(adjacent);
  EXPECT_EQ(adjacent->starts(), (std::vector<std::uint32_t>{0, 4}));
}

TEST(WindowMapUse, WindowPastTheEndIsRefused) {
  EXPECT_FALSE(WindowMap::from_run(kPe32, 16, {{13, 4}}));
  EXPECT_TRUE(WindowMap::from_run(kPe32, 16, {{12, 4}}));
}

TEST(WindowMapUse, PolicyAndSizeMustMatch) {
  const auto map = WindowMap::from_run(kPe32, 32, {{8, 4}});
  ASSERT_TRUE(map);
  EXPECT_TRUE(map->usable_for(kPe32, 32));
  EXPECT_FALSE(map->usable_for(kPe32, 33));
  EXPECT_FALSE(map->usable_for(kElf64, 32));
  FixupPolicy biased = kPe32;
  biased.base_bias = 1ull << 40;
  EXPECT_FALSE(map->usable_for(biased, 32));
}

// ---- the main property --------------------------------------------------------------

/// Random C with non-overlapping windows, some adjacent, some at the edges.
std::vector<std::uint32_t> random_windows(std::size_t size, std::uint32_t width,
                                          Xoshiro256& rng) {
  std::vector<std::uint32_t> starts;
  std::size_t at = rng.below(3) == 0 ? 0 : rng.below(12);
  while (at + width <= size) {
    starts.push_back(static_cast<std::uint32_t>(at));
    at += width + (rng.below(3) == 0 ? 0 : rng.below(40));
  }
  return starts;
}

TEST(WindowMapProperty, MapCheckEqualsAlgorithm2ReducingToCanonical) {
  Xoshiro256 rng(2024);
  std::size_t usable_maps = 0;
  std::size_t hits = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const FixupPolicy policy = trial % 2 == 0 ? kPe32 : kElf64;
    const std::size_t size = 16 + rng.below(300);
    Bytes c(size);
    for (auto& b : c) {
      b = static_cast<std::uint8_t>(rng.next());
    }
    const std::vector<std::uint32_t> starts =
        random_windows(size, policy.width, rng);
    const std::uint32_t ref_base =
        static_cast<std::uint32_t>(rng.next()) | 0x1000u;
    // The establishing copy and the checked copy each share 0-3 low bytes
    // with the reference (offset 1-4).
    const std::uint32_t est_base = base_at_offset(
        ref_base, 1 + static_cast<std::uint32_t>(rng.below(4)), rng);
    const std::uint32_t base = base_at_offset(
        ref_base, 1 + static_cast<std::uint32_t>(rng.below(4)), rng);
    const Established e = establish(c, starts, ref_base, est_base, policy);
    if (!e.map) {
      continue;  // alternate-width windows: the map is refused
    }
    ++usable_maps;

    std::vector<std::pair<const char*, Bytes>> copies;
    copies.emplace_back("clean", relocate(e.canonical, e.map->starts(), base,
                                          policy));
    Bytes patched = copies[0].second;
    patched[rng.below(size)] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    copies.emplace_back("patched", patched);
    if (!e.map->starts().empty()) {
      Bytes wrong = copies[0].second;
      const std::uint32_t s =
          e.map->starts()[rng.below(e.map->starts().size())];
      wrong[s + rng.below(policy.width)] ^= 0x10;
      copies.emplace_back("wrong window", wrong);
    }
    Bytes longer = copies[0].second;
    longer.push_back(0x90);
    copies.emplace_back("size", longer);

    for (const auto& [what, copy] : copies) {
      const bool today = algorithm2_reduces_to(e.reference, ref_base, copy,
                                               base, policy, e.canonical);
      const bool by_map = relocated_content_equal(
          owned_item(copy), policy, base, e.canonical, *e.map);
      EXPECT_EQ(by_map, today) << what << " trial " << trial;
      hits += by_map ? 1 : 0;
    }
    EXPECT_TRUE(relocated_content_equal(owned_item(copies[0].second), policy,
                                        base, e.canonical, *e.map))
        << "clean copy must hit, trial " << trial;
  }
  EXPECT_GT(usable_maps, 300u);
  EXPECT_GE(hits, usable_maps);
}

TEST(WindowMapProperty, WindowsStraddlingViewSegmentsAreRead) {
  Xoshiro256 rng(7);
  for (const FixupPolicy& policy : {kPe32, kElf64}) {
    Bytes c(96);
    for (auto& b : c) {
      b = static_cast<std::uint8_t>(rng.next());
    }
    const std::vector<std::uint32_t> starts = {0, 8, 16, 24, 40, 56, 80};
    const Established e =
        establish(c, starts, 0x8C010000, 0x8C2A0000, policy);
    ASSERT_TRUE(e.map);
    const std::uint32_t base = 0x9B370000;
    const Bytes clean = relocate(e.canonical, e.map->starts(), base, policy);
    // Cut inside every window (and at its edges) in turn.
    for (std::size_t cut = 1; cut < c.size(); ++cut) {
      // One cut, then the same cut followed by a one-byte segment.
      std::vector<std::vector<std::size_t>> cut_sets = {{cut}};
      if (cut + 1 < c.size()) {
        cut_sets.push_back({cut, cut + 1});
      }
      for (const auto& cuts : cut_sets) {
        Bytes backing;
        const IntegrityItem item = view_item(clean, cuts, backing);
        ASSERT_EQ(item.view.segments().size(), cuts.size() + 1);
        EXPECT_TRUE(relocated_content_equal(item, policy, base, e.canonical,
                                            *e.map))
            << "cut " << cut;
      }
      Bytes flipped = clean;
      flipped[cut] ^= 0x01;
      Bytes backing2;
      const IntegrityItem bad = view_item(flipped, {cut}, backing2);
      EXPECT_FALSE(relocated_content_equal(bad, policy, base, e.canonical,
                                           *e.map))
          << "cut " << cut;
    }
  }
}

TEST(WindowMapProperty, LongContentWithWindowsAtEveryAlignment) {
  // Windows every width + 1..3 bytes over several KiB, so every position
  // of a window relative to any internal block boundary occurs; each
  // byte flip near the start, the middle and the end must miss.
  Xoshiro256 rng(31);
  for (const FixupPolicy& policy : {kPe32, kElf64}) {
    Bytes c(9000);
    for (auto& b : c) {
      b = static_cast<std::uint8_t>(rng.next());
    }
    std::vector<std::uint32_t> starts;
    for (std::size_t at = 1; at + policy.width <= c.size();
         at += policy.width + 1 + rng.below(3)) {
      starts.push_back(static_cast<std::uint32_t>(at));
    }
    const Established e = establish(c, starts, 0xC0DE0000, 0xC1110000, policy);
    ASSERT_TRUE(e.map);
    ASSERT_EQ(e.map->starts(), starts);
    const std::uint32_t base = 0xC5550000;
    const Bytes clean = relocate(e.canonical, starts, base, policy);
    EXPECT_TRUE(relocated_content_equal(owned_item(clean), policy, base,
                                        e.canonical, *e.map));
    for (const std::size_t around : {std::size_t{0}, std::size_t{2048},
                                     std::size_t{4096}, c.size() - 16}) {
      for (std::size_t k = around; k < around + 16; ++k) {
        Bytes flipped = clean;
        flipped[k] ^= 0x80;
        EXPECT_FALSE(relocated_content_equal(owned_item(flipped), policy, base,
                                             e.canonical, *e.map))
            << "byte " << k;
        EXPECT_FALSE(algorithm2_reduces_to(e.reference, 0xC0DE0000, flipped,
                                           base, policy, e.canonical))
            << "byte " << k;
      }
    }
  }
}

// ---- the blind spot does not widen ------------------------------------------------

TEST(WindowMapBlindSpot, CraftedWordMissesTheMapAndGetsTodaysAnswer) {
  // Algorithm 2 accepts a patch c + (base_X - base_R) at a non-window
  // word: it rewrites both sides there, so the copy resolves against R,
  // but to bytes other than C.  The map must not accept it, and today's
  // path (Algorithm 2, then the canonical compare) must decide it.
  Xoshiro256 rng(99);
  Bytes c(64);
  for (auto& b : c) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  const std::vector<std::uint32_t> starts = {4, 40};
  const std::uint32_t ref_base = 0x00410000;
  const Established e = establish(c, starts, ref_base, 0x00730000, kPe32);
  ASSERT_TRUE(e.map);
  const std::uint32_t base = 0x00A50000;
  Bytes crafted = relocate(e.canonical, e.map->starts(), base, kPe32);
  const std::size_t p = 20;  // a word no window touches
  store_le32(crafted, p, load_le32(e.reference, p) + (base - ref_base));

  Bytes r = e.reference;
  Bytes x = crafted;
  const RvaAdjustResult adj = adjust_fixups(
      MutableByteView(r), ref_base, MutableByteView(x), base, kPe32);
  EXPECT_EQ(adj.unresolved_diffs, 0u);  // the blind spot itself
  EXPECT_NE(x, e.canonical);
  EXPECT_FALSE(relocated_content_equal(owned_item(crafted), kPe32, base,
                                       e.canonical, *e.map));

  // In a pool: the crafted copy misses the map, runs Algorithm 2 and is
  // ineligible, exactly as before the map existed.
  const auto module = [&](vmm::DomainId dom, std::uint32_t b, Bytes text) {
    ParsedModule m;
    m.domain = dom;
    m.name = "crafted.sys";
    m.base = b;
    m.items.push_back(owned_item(std::move(text)));
    return m;
  };
  const ParsedModule ref = module(1, ref_base, e.reference);
  const ParsedModule honest =
      module(2, 0x00730000, relocate(e.canonical, starts, 0x00730000, kPe32));
  const ParsedModule attacker = module(3, base, crafted);
  telemetry::MetricRegistry reg;
  CanonicalPool pool(crypto::HashAlgorithm::kMd5, vmi::HostCostModel{}, &reg);
  SimClock clock;
  pool.add(ref, clock);
  pool.add(honest, clock);
  pool.add(attacker, clock);
  pool.finalize(clock);
  EXPECT_TRUE(pool.eligible(2));
  EXPECT_FALSE(pool.eligible(3));
  EXPECT_EQ(reg.counter("canonical.adjust_runs").value(), 2u);
  EXPECT_EQ(reg.counter("canonical.window_hits").value(), 0u);
  EXPECT_EQ(reg.counter("canonical.window_misses").value(), 1u);
}

// ---- ELF R_X86_64_32S: the 4-byte truncated store ----------------------------------

/// A 32-byte ELF section whose only relocation is an R_X86_64_32S store
/// at offset 8: the low dword of target + biased base, then four bytes of
/// unrelated code.
Bytes elf_section_32s(std::uint32_t base, std::uint32_t target) {
  Bytes b(32);
  for (std::size_t k = 0; k < b.size(); ++k) {
    b[k] = static_cast<std::uint8_t>(0x40 + k);
  }
  store_le32(b, 8, target + base);
  return b;
}

TEST(WindowMapElf, NoWrapThe8ByteAttemptResolvesAndTheMapIsUsable) {
  const std::uint32_t target = 0x00001000;
  const std::uint32_t rb = 0x10000000;
  const std::uint32_t xb = 0x20000000;
  const Bytes ref = elf_section_32s(rb, target);
  Bytes r = ref;
  Bytes x = elf_section_32s(xb, target);
  std::vector<FixupWindow> windows;
  const RvaAdjustResult adj =
      adjust_fixups(MutableByteView(r), rb, MutableByteView(x), xb, kElf64,
                    simd::Policy::kAuto, &windows);
  ASSERT_EQ(adj.unresolved_diffs, 0u);
  ASSERT_EQ(windows, (std::vector<FixupWindow>{{8, 8}}));
  const auto map = WindowMap::from_run(kElf64, x.size(), windows);
  ASSERT_TRUE(map);

  // A third copy that also does not wrap hits; one whose store wraps
  // misses, and today's path does not reduce it to C either.
  const std::uint32_t yb = 0x30000000;
  const Bytes y = elf_section_32s(yb, target);
  EXPECT_TRUE(relocated_content_equal(owned_item(y), kElf64, yb, x, *map));
  EXPECT_TRUE(algorithm2_reduces_to(ref, rb, y, yb, kElf64, x));
  const std::uint32_t wb = 0xFFFFF000;
  const Bytes w = elf_section_32s(wb, target);
  EXPECT_FALSE(relocated_content_equal(owned_item(w), kElf64, wb, x, *map));
  EXPECT_FALSE(algorithm2_reduces_to(ref, rb, w, wb, kElf64, x));
}

TEST(WindowMapElf, WrapUsesThe4ByteAlternateAndTheMapIsRefused) {
  const std::uint32_t target = 0x00002000;
  const std::uint32_t rb = 0x10000000;
  const std::uint32_t xb = 0xFFFFF000;  // target + xb wraps mod 2^32
  Bytes r = elf_section_32s(rb, target);
  Bytes x = elf_section_32s(xb, target);
  std::vector<FixupWindow> windows;
  const RvaAdjustResult adj =
      adjust_fixups(MutableByteView(r), rb, MutableByteView(x), xb, kElf64,
                    simd::Policy::kAuto, &windows);
  ASSERT_EQ(adj.unresolved_diffs, 0u);
  ASSERT_EQ(windows, (std::vector<FixupWindow>{{8, 4}}));
  EXPECT_FALSE(WindowMap::from_run(kElf64, x.size(), windows));
}

// ---- in the pool: one run per item, charges unchanged -------------------------------

TEST(WindowMapPool, CleanPoolRunsAlgorithm2OncePerItem) {
  Xoshiro256 rng(15);
  Bytes c(256);
  for (auto& b : c) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  const std::vector<std::uint32_t> starts = {3, 7, 64, 130, 200, 252};
  telemetry::MetricRegistry reg;
  CanonicalPool pool(crypto::HashAlgorithm::kMd5, vmi::HostCostModel{}, &reg);
  SimClock clock;
  std::vector<ParsedModule> modules;
  for (vmm::DomainId dom = 1; dom <= 15; ++dom) {
    ParsedModule m;
    m.domain = dom;
    m.name = "pool.sys";
    m.base = 0x80000000u + dom * 0x00130000u;
    m.items.push_back(owned_item(relocate(c, starts, m.base, kPe32)));
    modules.push_back(std::move(m));
  }
  std::vector<SimNanos> charged;
  for (const ParsedModule& m : modules) {
    const SimNanos before = clock.now();
    pool.add(m, clock);
    charged.push_back(clock.now() - before);
  }
  pool.finalize(clock);
  for (vmm::DomainId dom = 1; dom <= 15; ++dom) {
    EXPECT_TRUE(pool.eligible(dom));
    EXPECT_EQ(pool.digests(dom), pool.digests(1));
  }
  EXPECT_EQ(reg.counter("canonical.adjust_runs").value(), 1u);
  EXPECT_EQ(reg.counter("canonical.window_hits").value(), 13u);
  EXPECT_EQ(reg.counter("canonical.window_misses").value(), 0u);
  EXPECT_EQ(reg.counter("canonical.hashes").value(), 1u);
  EXPECT_EQ(reg.counter("canonical.hash_skips").value(), 13u);
  // A hit is charged what it replaces: the adjust scan over both copies'
  // common length plus the compare against the canonical bytes.
  const SimNanos per_byte = vmi::HostCostModel{}.rva_scan_per_byte;
  for (std::size_t k = 2; k < charged.size(); ++k) {
    EXPECT_EQ(charged[k], 2 * per_byte * c.size()) << "copy " << k;
  }
}

}  // namespace
