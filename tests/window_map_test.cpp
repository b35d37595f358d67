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
#include <iterator>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "item_test_util.hpp"
#include "modchecker/canonical.hpp"
#include "modchecker/checker.hpp"
#include "modchecker/item_content.hpp"
#include "modchecker/rva_adjust.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "vmi/cost_model.hpp"

namespace {

using namespace mc;
using namespace mc::core;

constexpr auto kMd5 = crypto::HashAlgorithm::kMd5;
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

IntegrityItem text_item(vmi::GuestView view) {
  IntegrityItem item;
  item.kind = ItemKind::kSectionData;
  item.name = ".text";
  item.rva_sensitive = true;
  item.view = std::move(view);
  return item;
}

IntegrityItem owned_item(mc::test::ContentStore& store, Bytes bytes) {
  return text_item(store.hold(std::move(bytes)));
}

/// `content` as an item split at `cuts`: the pieces sit in one buffer of
/// `store` one gap byte apart, so no two segments coalesce.
IntegrityItem view_item(mc::test::ContentStore& store, const Bytes& content,
                        const std::vector<std::size_t>& cuts) {
  Bytes gapped(content.size() + cuts.size() + 1, 0xEE);
  std::vector<std::pair<std::size_t, std::size_t>> pieces;  // (at, size)
  std::size_t from = 0;
  std::size_t at = 0;
  std::vector<std::size_t> ends = cuts;
  ends.push_back(content.size());
  for (const std::size_t to : ends) {
    for (std::size_t k = from; k < to; ++k) {
      gapped[at + (k - from)] = content[k];
    }
    pieces.emplace_back(at, to - from);
    at += (to - from) + 1;
    from = to;
  }
  const vmi::GuestView backing = store.hold(std::move(gapped));
  vmi::GuestView view;
  for (const auto& [piece_at, piece_size] : pieces) {
    view.append(backing.as_contiguous().subspan(piece_at, piece_size));
  }
  return text_item(std::move(view));
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
                    policy, &e.windows);
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
        policy, &windows);
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
    mc::test::ContentStore store;  // this trial's item buffers
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
          owned_item(store, copy), policy, base, e.canonical, *e.map);
      EXPECT_EQ(by_map, today) << what << " trial " << trial;
      hits += by_map ? 1 : 0;
    }
    EXPECT_TRUE(relocated_content_equal(owned_item(store, copies[0].second),
                                        policy, base, e.canonical, *e.map))
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
      mc::test::ContentStore store;  // this cut's item buffers
      // One cut, then the same cut followed by a one-byte segment.
      std::vector<std::vector<std::size_t>> cut_sets = {{cut}};
      if (cut + 1 < c.size()) {
        cut_sets.push_back({cut, cut + 1});
      }
      for (const auto& cuts : cut_sets) {
        const IntegrityItem item = view_item(store, clean, cuts);
        ASSERT_EQ(item.view.segments().size(), cuts.size() + 1);
        EXPECT_TRUE(relocated_content_equal(item, policy, base, e.canonical,
                                            *e.map))
            << "cut " << cut;
      }
      Bytes flipped = clean;
      flipped[cut] ^= 0x01;
      const IntegrityItem bad = view_item(store, flipped, {cut});
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
    mc::test::ContentStore store;
    EXPECT_TRUE(relocated_content_equal(owned_item(store, clean), policy, base,
                                        e.canonical, *e.map));
    for (const std::size_t around : {std::size_t{0}, std::size_t{2048},
                                     std::size_t{4096}, c.size() - 16}) {
      for (std::size_t k = around; k < around + 16; ++k) {
        Bytes flipped = clean;
        flipped[k] ^= 0x80;
        mc::test::ContentStore flip_store;
        EXPECT_FALSE(relocated_content_equal(owned_item(flip_store, flipped),
                                             policy, base, e.canonical,
                                             *e.map))
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
  mc::test::ContentStore store;
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
  EXPECT_FALSE(relocated_content_equal(owned_item(store, crafted), kPe32,
                                       base, e.canonical, *e.map));

  // In a pool: the crafted copy misses the map, runs Algorithm 2 and is
  // ineligible, exactly as before the map existed.
  const auto module = [&](vmm::DomainId dom, std::uint32_t b, Bytes text) {
    ParsedModule m;
    m.domain = dom;
    m.name = "crafted.sys";
    m.base = b;
    m.items.push_back(owned_item(store, std::move(text)));
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
  mc::test::ContentStore store;
  const std::uint32_t target = 0x00001000;
  const std::uint32_t rb = 0x10000000;
  const std::uint32_t xb = 0x20000000;
  const Bytes ref = elf_section_32s(rb, target);
  Bytes r = ref;
  Bytes x = elf_section_32s(xb, target);
  std::vector<FixupWindow> windows;
  const RvaAdjustResult adj =
      adjust_fixups(MutableByteView(r), rb, MutableByteView(x), xb, kElf64,
                    &windows);
  ASSERT_EQ(adj.unresolved_diffs, 0u);
  ASSERT_EQ(windows, (std::vector<FixupWindow>{{8, 8}}));
  const auto map = WindowMap::from_run(kElf64, x.size(), windows);
  ASSERT_TRUE(map);

  // A third copy that also does not wrap hits; one whose store wraps
  // misses, and today's path does not reduce it to C either.
  const std::uint32_t yb = 0x30000000;
  const Bytes y = elf_section_32s(yb, target);
  EXPECT_TRUE(
      relocated_content_equal(owned_item(store, y), kElf64, yb, x, *map));
  EXPECT_TRUE(algorithm2_reduces_to(ref, rb, y, yb, kElf64, x));
  const std::uint32_t wb = 0xFFFFF000;
  const Bytes w = elf_section_32s(wb, target);
  EXPECT_FALSE(
      relocated_content_equal(owned_item(store, w), kElf64, wb, x, *map));
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
                    &windows);
  ASSERT_EQ(adj.unresolved_diffs, 0u);
  ASSERT_EQ(windows, (std::vector<FixupWindow>{{8, 4}}));
  EXPECT_FALSE(WindowMap::from_run(kElf64, x.size(), windows));
}

// ---- in the pool: one run per item, charges unchanged -------------------------------

TEST(WindowMapPool, CleanPoolRunsAlgorithm2OncePerItem) {
  mc::test::ContentStore store;
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
    m.items.push_back(owned_item(store, relocate(c, starts, m.base, kPe32)));
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

// ---- the delta fallback: Algorithm 2 around the patch only ------------------

/// One synthetic rva-sensitive section as a loader leaves it: random code
/// with slots holding target + base.  PE32 slots are 4-byte; ELF64 slots
/// are 8-byte R_X86_64_64 values, every third an R_X86_64_32S store (the
/// low dword only, code after it).
struct Recipe {
  FixupPolicy policy;
  Bytes code;
  std::vector<std::uint32_t> slots;
  std::vector<std::uint32_t> targets;
  std::vector<bool> truncated;
};

Recipe random_recipe(const FixupPolicy& policy, Xoshiro256& rng) {
  Recipe r;
  r.policy = policy;
  r.code.resize(200 + rng.below(700));
  for (auto& b : r.code) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  for (std::size_t at = rng.below(10); at + policy.width <= r.code.size();
       at += policy.width + (rng.below(4) == 0 ? 0 : rng.below(30))) {
    r.slots.push_back(static_cast<std::uint32_t>(at));
    r.targets.push_back(static_cast<std::uint32_t>(rng.below(1u << 20)));
    r.truncated.push_back(policy.width == 8 && r.slots.size() % 3 == 0);
  }
  return r;
}

Bytes load_recipe(const Recipe& r, std::uint32_t base) {
  Bytes b = r.code;
  for (std::size_t k = 0; k < r.slots.size(); ++k) {
    if (r.policy.width == 4 || r.truncated[k]) {
      store_le32(b, r.slots[k], r.targets[k] + base);
    } else {
      store_le64(b, r.slots[k], r.targets[k] + r.policy.biased_base(base));
    }
  }
  return b;
}

/// A module of one raw header item and one rva-sensitive .text, the text
/// split at `cuts` when there are any.
ParsedModule delta_module(mc::test::ContentStore& store, vmm::DomainId vm,
                          std::uint32_t base, const FixupPolicy& policy,
                          const Bytes& header, const Bytes& text,
                          const std::vector<std::size_t>& cuts) {
  ParsedModule m;
  m.domain = vm;
  m.name = "delta.sys";
  m.base = base;
  m.fixups = policy;
  IntegrityItem h;
  h.kind = ItemKind::kNtHeader;
  h.name = "IMAGE_NT_HEADER";
  h.view = store.hold(header);
  m.items.push_back(std::move(h));
  m.items.push_back(cuts.empty() ? owned_item(store, text)
                                 : view_item(store, text, cuts));
  return m;
}

std::vector<const ParsedModule*> pointers(const std::vector<ParsedModule>& m) {
  std::vector<const ParsedModule*> out;
  for (const ParsedModule& module : m) {
    out.push_back(&module);
  }
  return out;
}

enum class Shape {
  kRandomBytes,    // 1-16 bytes at a random offset, sometimes twice
  kInWindow,       // inside one slot
  kBeforeWindow,   // 1-3 bytes ending right before a slot
  kTwoWindows,     // from inside one slot into the next
  kBlindSpot,      // c + (base_X - base_P) at a word outside every slot
  kTruncatedWrap,  // an R_X86_64_32S store that wraps at X's base only
  kTruncatedPatch, // an R_X86_64_32S store redirected by 0x40
  kRawHeader,      // the raw header item, and one text byte
};
constexpr Shape kShapes[] = {
    Shape::kRandomBytes, Shape::kInWindow,       Shape::kBeforeWindow,
    Shape::kTwoWindows,  Shape::kBlindSpot,      Shape::kTruncatedWrap,
    Shape::kTruncatedPatch, Shape::kRawHeader};

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kRandomBytes:
      return "random bytes";
    case Shape::kInWindow:
      return "inside a window";
    case Shape::kBeforeWindow:
      return "before a window";
    case Shape::kTwoWindows:
      return "across two windows";
    case Shape::kBlindSpot:
      return "blind-spot word";
    case Shape::kTruncatedWrap:
      return "32S store wraps";
    case Shape::kTruncatedPatch:
      return "32S store patched";
    case Shape::kRawHeader:
      return "raw header";
  }
  return "?";
}

/// Writes `shape` into `text` (loaded at `base`, a peer at `peer_base`),
/// or into `header`; returns the patched [lo, hi) text range ({0, 0} for
/// none).  False when the recipe has no place for the shape.
bool apply_shape(Shape shape, const Recipe& r, std::uint32_t base,
                 std::uint32_t peer_base, Bytes& text, Bytes& header,
                 Xoshiro256& rng, std::pair<std::size_t, std::size_t>& range) {
  const std::uint32_t w = r.policy.width;
  const auto flip = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      text[k] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    range = {lo, hi};
  };
  const std::size_t n = text.size();
  const std::size_t slots = r.slots.size();
  switch (shape) {
    case Shape::kRandomBytes: {
      const std::size_t len = 1 + rng.below(16);
      const std::size_t lo = rng.below(n - len);
      flip(lo, lo + len);
      if (rng.below(2) == 0) {
        const std::size_t lo2 = rng.below(n - 4);
        text[lo2] ^= 0x5A;
        range = {std::min(lo, lo2), std::max(lo + len, lo2 + 1)};
      }
      return true;
    }
    case Shape::kInWindow: {
      if (slots == 0) {
        return false;
      }
      const std::size_t s = r.slots[rng.below(slots)];
      const std::size_t lo = s + rng.below(w);
      flip(lo, lo + 1 + rng.below(s + w - lo));
      return true;
    }
    case Shape::kBeforeWindow: {
      if (slots == 0 || r.slots.back() < 4) {
        return false;
      }
      std::size_t s = r.slots[rng.below(slots)];
      if (s < 4) {
        s = r.slots.back();
      }
      const std::size_t before = 1 + rng.below(3);
      flip(s - before, s - before + 1 + rng.below(before));
      return true;
    }
    case Shape::kTwoWindows: {
      if (slots < 2) {
        return false;
      }
      const std::size_t k = rng.below(slots - 1);
      const std::size_t lo = r.slots[k] + rng.below(w);
      const std::size_t hi = r.slots[k + 1] + 1 + rng.below(w);
      flip(lo, std::min(hi, n));
      return true;
    }
    case Shape::kBlindSpot: {
      // A word clear of every slot window.
      std::vector<std::size_t> gaps;
      std::size_t at = 0;
      for (const std::uint32_t s : r.slots) {
        if (s >= at + w) {
          gaps.push_back(at);
        }
        at = s + w;
      }
      if (n >= at + w) {
        gaps.push_back(at);
      }
      if (gaps.empty()) {
        return false;
      }
      const std::size_t q = gaps[rng.below(gaps.size())];
      if (w == 4) {
        store_le32(text, q, load_le32(text, q) + (base - peer_base));
      } else {
        store_le64(text, q,
                   load_le64(text, q) + (std::uint64_t{base} - peer_base));
      }
      range = {q, q + w};
      return true;
    }
    case Shape::kTruncatedWrap:
      return false;  // chosen through the base, see the caller
    case Shape::kTruncatedPatch: {
      for (std::size_t k = 0; k < slots; ++k) {
        if (r.truncated[k]) {
          store_le32(text, r.slots[k], load_le32(text, r.slots[k]) + 0x40);
          range = {r.slots[k], r.slots[k] + 4};
          return true;
        }
      }
      return false;
    }
    case Shape::kRawHeader: {
      // The text byte makes the copy ineligible, so its pairs fall back
      // and the header is decided there too.
      const std::size_t lo = rng.below(header.size() - 8);
      for (std::size_t k = lo; k < lo + 1 + rng.below(8); ++k) {
        header[k] ^= 0x21;
      }
      flip(n / 2, n / 2 + 1);
      return true;
    }
  }
  return false;
}

TEST(DeltaFallback, AnswersEqualDecideForEveryPatchShape) {
  // Seeded pools of 5-10 copies at bases 1-4 bytes apart from the infected
  // one: for every pair with an ineligible side, decide() with the pool's
  // plan must give decide()'s (and compare()'s) answer, charge the same
  // simulated time, examine the same items and hash the same forms.
  Xoshiro256 rng(26);
  const vmi::HostCostModel costs;
  const IntegrityChecker checker(kMd5, costs);
  std::map<Shape, std::size_t> delta_pairs;
  std::map<Shape, std::size_t> trials_run;
  for (int trial = 0; trial < 480; ++trial) {
    const FixupPolicy policy = trial % 2 == 0 ? kPe32 : kElf64;
    const Shape shape =
        kShapes[static_cast<std::size_t>(trial / 2) % std::size(kShapes)];
    if (shape == Shape::kTruncatedPatch && policy.width == 4) {
      continue;
    }
    if (shape == Shape::kTruncatedWrap && policy.width == 4) {
      continue;
    }
    const Recipe r = random_recipe(policy, rng);
    Bytes header(64);
    for (auto& b : header) {
      b = static_cast<std::uint8_t>(rng.next());
    }
    // X's base; the wrap shape puts it where its 32S stores overflow.
    std::uint32_t xb = (static_cast<std::uint32_t>(rng.next()) & 0x7FFFF000u) |
                       0x01000000u;
    if (shape == Shape::kTruncatedWrap) {
      xb = 0xFFFF0000u | static_cast<std::uint32_t>(rng.below(0x100) << 8);
    }
    const std::size_t t = 5 + rng.below(6);
    std::vector<std::uint32_t> bases;
    for (std::size_t k = 0; k + 1 < t; ++k) {
      // Peers 1-4 bytes apart from X, and now and then one at X's base.
      bases.push_back(rng.below(8) == 0
                          ? xb
                          : base_at_offset(xb, 1 + static_cast<std::uint32_t>(
                                                       rng.below(4)),
                                           rng));
      if (shape == Shape::kTruncatedWrap) {
        bases.back() &= 0x7FFFFFFFu;  // the peers never wrap
      }
    }
    Bytes text = load_recipe(r, xb);
    Bytes x_header = header;
    std::pair<std::size_t, std::size_t> range{0, 0};
    if (shape != Shape::kTruncatedWrap &&
        !apply_shape(shape, r, xb, bases[0], text, x_header, rng, range)) {
      continue;
    }
    // View segments that split the patch.
    std::vector<std::size_t> cuts;
    if (rng.below(2) == 0 && range.second > range.first + 1) {
      cuts = {range.first + 1};
      if (range.second - 1 > range.first + 1) {
        cuts.push_back(range.second - 1);
      }
    }
    mc::test::ContentStore store;  // this trial's item buffers
    std::vector<ParsedModule> pool;
    vmm::DomainId next_vm = 1;
    const bool infected_reference = rng.below(4) == 0;
    if (infected_reference) {
      pool.push_back(
          delta_module(store, next_vm++, xb, policy, x_header, text, cuts));
    }
    for (const std::uint32_t b : bases) {
      pool.push_back(delta_module(store, next_vm++, b, policy, header,
                                  load_recipe(r, b), {}));
    }
    if (!infected_reference) {
      pool.insert(pool.begin() + static_cast<std::ptrdiff_t>(
                                     1 + rng.below(pool.size())),
                  delta_module(store, next_vm++, xb, policy, x_header, text,
                               cuts));
    }
    if (rng.below(4) == 0) {
      // A second infected VM with a patch of its own.
      const std::uint32_t yb = pool.back().base;
      Bytes y = load_recipe(r, yb);
      y[rng.below(y.size())] ^= 0x77;
      pool.back() =
          delta_module(store, pool.back().domain, yb, policy, header, y, {});
    }

    telemetry::MetricRegistry reg;
    SimClock build_clock;
    const CanonicalPool canon =
        CanonicalPool::elect(pointers(pool), build_clock, kMd5, costs, &reg);
    std::vector<const ParsedModule*> patched;
    for (const ParsedModule& m : pool) {
      if (!canon.eligible(m.domain)) {
        patched.push_back(&m);
      }
    }
    if (patched.empty()) {
      continue;
    }
    ++trials_run[shape];
    const DeltaPlan plan = canon.plan_fallback(patched);
    DigestTable plain(kMd5, costs, &reg);
    DigestTable planned(kMd5, costs, &reg);
    plan.seed(planned);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      for (std::size_t j = i + 1; j < pool.size(); ++j) {
        if (canon.eligible(pool[i].domain) && canon.eligible(pool[j].domain)) {
          continue;  // the fast path's pair, never a fallback
        }
        SimClock c1;
        SimClock c2;
        SimClock c3;
        DecideTally t1;
        DecideTally t2;
        const bool want =
            checker.compare(pool[i], pool[j], c3).all_match;
        const bool today = checker.decide(pool[i], pool[j], c1, plain, &t1);
        const bool delta =
            checker.decide(pool[i], pool[j], c2, planned, &t2, &plan);
        ASSERT_EQ(today, want) << shape_name(shape) << " trial " << trial;
        ASSERT_EQ(delta, today) << shape_name(shape) << " trial " << trial
                                << " pair " << i << "," << j;
        EXPECT_EQ(c2.now(), c1.now())
            << shape_name(shape) << " trial " << trial;
        EXPECT_EQ(t2.items, t1.items)
            << shape_name(shape) << " trial " << trial;
        std::size_t refused = 0;
        for (const std::size_t k : t2.refusals) {
          refused += k;
        }
        EXPECT_EQ(t2.delta_items + refused, t2.items);
        if (refused == 0) {
          ++delta_pairs[shape];
        }
      }
    }
    EXPECT_EQ(planned.form_hashes(), plain.form_hashes())
        << shape_name(shape) << " trial " << trial;
  }
  for (const Shape shape : kShapes) {
    EXPECT_GT(trials_run[shape], 10u) << shape_name(shape);
    EXPECT_GT(delta_pairs[shape], 0u) << shape_name(shape);
  }
}

TEST(DeltaFallback, ResumedRunEqualsTheFullRunInsideItsSlice) {
  // adjust_fixups_resumed over a slice, started at a window end of two
  // relocated copies, rewrites exactly the bytes the full run rewrites
  // there and stops at the first resynchronisation point past `until`.
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 300; ++trial) {
    const FixupPolicy policy = trial % 2 == 0 ? kPe32 : kElf64;
    const std::size_t size = 64 + rng.below(400);
    Bytes c(size);
    for (auto& b : c) {
      b = static_cast<std::uint8_t>(rng.next());
    }
    const std::vector<std::uint32_t> starts =
        random_windows(size, policy.width, rng);
    if (starts.size() < 3) {
      continue;
    }
    const std::uint32_t ab = static_cast<std::uint32_t>(rng.next()) | 0x1000u;
    const std::uint32_t bb = base_at_offset(
        ab, 1 + static_cast<std::uint32_t>(rng.below(4)), rng);
    Bytes a = relocate(c, starts, ab, policy);
    const Bytes b = relocate(c, starts, bb, policy);
    const std::size_t lo = starts[1] + policy.width + rng.below(8);
    a[std::min(lo, size - 1)] ^= 0x3C;
    Bytes fa = a;
    Bytes fb = b;
    adjust_fixups(MutableByteView(fa), ab, MutableByteView(fb), bb, policy);
    const std::size_t from = starts[0] + policy.width;
    const std::size_t origin = from - std::min<std::size_t>(from, 3);
    Bytes la(a.begin() + static_cast<std::ptrdiff_t>(origin), a.end());
    Bytes lb(b.begin() + static_cast<std::ptrdiff_t>(origin), b.end());
    for (std::size_t k = origin; k < from; ++k) {
      la[k - origin] = c[k];
      lb[k - origin] = c[k];
    }
    const ResumedRun run = adjust_fixups_resumed(
        MutableByteView(la), ab, MutableByteView(lb), bb, policy, origin, size,
        from, std::min(lo, size - 1) + 1, starts);
    ASSERT_TRUE(run.synced) << "trial " << trial;
    for (std::size_t k = origin; k < run.stop; ++k) {
      ASSERT_EQ(la[k - origin], fa[k]) << "trial " << trial << " byte " << k;
      ASSERT_EQ(lb[k - origin], fb[k]) << "trial " << trial << " byte " << k;
    }
    // Past the stop, the full run left C on both sides.
    for (std::size_t k = run.stop; k < size; ++k) {
      ASSERT_EQ(fa[k], c[k]) << "trial " << trial << " byte " << k;
      ASSERT_EQ(fb[k], c[k]) << "trial " << trial << " byte " << k;
    }
  }
}

}  // namespace
