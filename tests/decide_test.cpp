// Differential suite for the decide-only exact fallback.
//
// IntegrityChecker::decide must return exactly what compare().all_match
// returns, for every pair the pool scan can hand it: the paper's E1-E4,
// their ELF analogues, shape mismatches, an infected reference, duplicate
// item names, differing item counts and a seeded random sweep of
// hand-built pairs (flips inside and outside relocation windows, moved
// bases, crafted relocated-looking words).  Then the pool-scan side: one
// hash per distinct form, scan totals independent of worker_threads,
// Algorithm 2's known blind spot pinned in all three deciders, and one
// vote per VM when the caller repeats an id.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attacks/byte_patch.hpp"
#include "attacks/dll_import_inject.hpp"
#include "attacks/header_tamper.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/stub_patch.hpp"
#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "elf/constants.hpp"
#include "elf/parser.hpp"
#include "guestos/kernel.hpp"
#include "guestos/ko_loader.hpp"
#include "item_test_util.hpp"
#include "modchecker/canonical.hpp"
#include "modchecker/checker.hpp"
#include "modchecker/incremental.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/pipeline.hpp"
#include "modchecker/rva_adjust.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace mc;
using namespace mc::core;

constexpr auto kMd5 = crypto::HashAlgorithm::kMd5;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

std::unique_ptr<cloud::LinuxEnvironment> make_linux_env(std::size_t guests) {
  cloud::LinuxCloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::LinuxEnvironment>(cfg);
}

std::vector<const ParsedModule*> pointers(const std::vector<ParsedModule>& m) {
  std::vector<const ParsedModule*> out;
  for (const ParsedModule& module : m) {
    out.push_back(&module);
  }
  return out;
}

/// Every ordered pair of `copies`: decide() over one table shared by all
/// pairs (as in a scan) equals compare().all_match.  Returns the number of
/// matching ordered pairs.
std::size_t expect_decide_equals_compare(
    const std::vector<const ParsedModule*>& copies) {
  const IntegrityChecker checker;
  telemetry::MetricRegistry reg;
  DigestTable forms(checker.algorithm(), vmi::HostCostModel{}, &reg);
  std::size_t matches = 0;
  for (const ParsedModule* a : copies) {
    for (const ParsedModule* b : copies) {
      if (a == b) {
        continue;
      }
      SimClock compare_clock;
      SimClock decide_clock;
      const bool want = checker.compare(*a, *b, compare_clock).all_match;
      EXPECT_EQ(checker.decide(*a, *b, decide_clock, forms), want)
          << a->name << ": vm " << a->domain << " vs vm " << b->domain;
      matches += want ? 1u : 0u;
    }
  }
  return matches;
}

/// One module's parsed copies from every pool VM, extracted through a live
/// checker's own stages (the items borrow guest frames).
struct PoolCopies {
  PoolCopies(const vmm::Hypervisor& hv, const std::string& module,
             const std::vector<vmm::DomainId>& vms)
      : checker(hv) {
    for (const vmm::DomainId vm : vms) {
      exs.push_back(checker.pipeline().acquire_and_parse(vm, module));
    }
  }

  std::vector<const ParsedModule*> copies() const {
    std::vector<const ParsedModule*> out;
    for (const Extraction& ex : exs) {
      EXPECT_TRUE(ex.found && !ex.parse_failed);
      out.push_back(&ex.copy());
    }
    return out;
  }

  ModChecker checker;
  std::vector<Extraction> exs;
};

std::size_t expect_pool_decides_exactly(const vmm::Hypervisor& hv,
                                        const std::string& module,
                                        const std::vector<vmm::DomainId>& vms) {
  const PoolCopies pool(hv, module, vms);
  return expect_decide_equals_compare(pool.copies());
}

// ---- E1-E4, shape mismatches, an infected reference -------------------------------

TEST(DecideEquivalence, E1_OpcodeReplace) {
  auto env = make_env(6);
  attacks::OpcodeReplaceAttack{}.apply(*env, env->guests()[2], "hal.dll");
  // The five clean copies match each other: 5 * 4 ordered pairs.
  EXPECT_EQ(expect_pool_decides_exactly(env->hypervisor(), "hal.dll",
                                        env->guests()),
            20u);
}

TEST(DecideEquivalence, E2_InlineHook) {
  auto env = make_env(7);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[4], "hal.dll");
  EXPECT_EQ(expect_pool_decides_exactly(env->hypervisor(), "hal.dll",
                                        env->guests()),
            30u);
}

TEST(DecideEquivalence, E3_StubPatch) {
  auto env = make_env(5);
  attacks::StubPatchAttack{}.apply(*env, env->guests()[1], "dummy.sys");
  EXPECT_EQ(expect_pool_decides_exactly(env->hypervisor(), "dummy.sys",
                                        env->guests()),
            12u);
}

TEST(DecideEquivalence, E4_DllImportInjectIsAShapeMismatch) {
  auto env = make_env(5);
  attacks::DllImportInjectAttack{}.apply(*env, env->guests()[3], "dummy.sys");
  const PoolCopies pool(env->hypervisor(), "dummy.sys", env->guests());
  // The injected section leaves the victim with more items than its peers.
  EXPECT_NE(pool.exs[3].copy().items.size(), pool.exs[0].copy().items.size());
  EXPECT_EQ(expect_decide_equals_compare(pool.copies()), 12u);
}

TEST(DecideEquivalence, HeaderTamper) {
  auto env = make_env(6);
  attacks::HeaderTamperAttack{}.apply(*env, env->guests()[2], "ntfs.sys");
  EXPECT_EQ(expect_pool_decides_exactly(env->hypervisor(), "ntfs.sys",
                                        env->guests()),
            20u);
}

TEST(DecideEquivalence, TwoInfectedVmsIncludingReference) {
  auto env = make_env(8);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  attacks::OpcodeReplaceAttack{}.apply(*env, env->guests()[5], "hal.dll");
  EXPECT_EQ(expect_pool_decides_exactly(env->hypervisor(), "hal.dll",
                                        env->guests()),
            30u);
}

// ---- ELF analogues --------------------------------------------------------------

/// Guest VA of `section` inside `module`'s mapped image on one Linux guest
/// (the synthetic .ko layout has sh_addr == sh_offset).
std::uint32_t section_va(cloud::LinuxEnvironment& env, vmm::DomainId vm,
                         const std::string& module,
                         const std::string& section) {
  const guestos::LoadedKo* ko = env.loader(vm).find(module);
  EXPECT_NE(ko, nullptr);
  const elf::ElfImage image{ByteView(env.golden_file(module))};
  const elf::Elf64Shdr* sh = image.find_section(section);
  EXPECT_NE(sh, nullptr);
  return ko->base + static_cast<std::uint32_t>(sh->sh_offset);
}

TEST(DecideEquivalence, ElfTextPatch) {
  auto env = make_linux_env(6);
  const vmm::DomainId victim = env->guests()[2];
  const Bytes patch = {0xCC};
  env->kernel(victim).address_space().write_virtual(
      section_va(*env, victim, "scsi_mod", ".text") + 3, ByteView(patch));
  EXPECT_EQ(expect_pool_decides_exactly(env->hypervisor(), "scsi_mod",
                                        env->guests()),
            20u);
}

TEST(DecideEquivalence, ElfFixupRedirect) {
  // Redirected fixup pointer (first R_X86_64_64 slot of nf_conntrack).
  auto env = make_linux_env(7);
  const vmm::DomainId victim = env->guests()[4];
  const std::uint32_t va =
      section_va(*env, victim, "nf_conntrack", ".text") + 264;
  Bytes slot(8, 0);
  env->kernel(victim).address_space().read_virtual(va, MutableByteView(slot));
  store_le64(MutableByteView(slot), 0, load_le64(ByteView(slot), 0) + 0x40);
  env->kernel(victim).address_space().write_virtual(va, ByteView(slot));
  EXPECT_EQ(expect_pool_decides_exactly(env->hypervisor(), "nf_conntrack",
                                        env->guests()),
            30u);
}

TEST(DecideEquivalence, ElfRelaTamper) {
  // .rela.text tamper: a raw item differing on one copy.
  auto env = make_linux_env(5);
  const vmm::DomainId victim = env->guests()[1];
  const Bytes tamper = {0x7F};
  env->kernel(victim).address_space().write_virtual(
      section_va(*env, victim, "ext3", ".rela.text") + 16, ByteView(tamper));
  EXPECT_EQ(expect_pool_decides_exactly(env->hypervisor(), "ext3",
                                        env->guests()),
            12u);
}

// ---- hand-built shapes ----------------------------------------------------------

IntegrityItem make_item(mc::test::ContentStore& store, ItemKind kind,
                        const std::string& name, Bytes bytes,
                        bool rva_sensitive) {
  IntegrityItem item;
  item.kind = kind;
  item.name = name;
  item.view = store.hold(std::move(bytes));
  item.rva_sensitive = rva_sensitive;
  return item;
}

ParsedModule module_of(vmm::DomainId dom, std::uint32_t base,
                       std::vector<IntegrityItem> items) {
  ParsedModule m;
  m.domain = dom;
  m.name = "synth.sys";
  m.base = base;
  m.items = std::move(items);
  return m;
}

TEST(DecideEquivalence, DuplicateItemNames) {
  mc::test::ContentStore store;
  // Two sections named ".rdata" (raw, then rva-sensitive): pairing is by
  // (kind, name), first unused wins, so a patch in either duplicate must
  // fail the pair, and only a patch.
  const auto make = [&store](vmm::DomainId dom, std::uint8_t first,
                             std::uint8_t second) {
    std::vector<IntegrityItem> items;
    items.push_back(make_item(store, ItemKind::kSectionData, ".rdata",
                              Bytes(64, first), false));
    items.push_back(make_item(store, ItemKind::kSectionData, ".rdata",
                              Bytes(64, second), false));
    items.push_back(make_item(store, ItemKind::kSectionData, ".text",
                              Bytes(32, 0x90), true));
    items.push_back(make_item(store, ItemKind::kSectionData, ".text",
                              Bytes(32, second), true));
    return module_of(dom, 0x10000 * dom, std::move(items));
  };
  std::vector<ParsedModule> copies;
  copies.push_back(make(1, 0x11, 0x22));
  copies.push_back(make(2, 0x11, 0x22));
  copies.push_back(make(3, 0x11, 0x99));  // second duplicates patched
  copies.push_back(make(4, 0x99, 0x22));  // first duplicate patched
  copies.push_back(make(5, 0x22, 0x11));  // the duplicates' contents swapped
  EXPECT_EQ(expect_decide_equals_compare(pointers(copies)), 2u);
}

TEST(DecideEquivalence, DifferentItemCountsAndNames) {
  mc::test::ContentStore store;
  const auto base_items = [&store] {
    std::vector<IntegrityItem> items;
    items.push_back(make_item(store, ItemKind::kDosHeader, "IMAGE_DOS_HEADER",
                              Bytes{0x4D, 0x5A, 0, 1}, false));
    items.push_back(make_item(store, ItemKind::kSectionData, ".text",
                              Bytes(48, 0x90), true));
    return items;
  };
  std::vector<ParsedModule> copies;
  copies.push_back(module_of(1, 0x10000, base_items()));
  copies.push_back(module_of(2, 0x230000, base_items()));
  {
    // Header tamper plus an injected section: a shape mismatch.
    std::vector<IntegrityItem> items = base_items();
    store.edit(items[0], [](Bytes& b) { b[3] = 2; });
    items.push_back(make_item(store, ItemKind::kSectionData, ".inject",
                              Bytes(16, 0xCC), true));
    copies.push_back(module_of(3, 0x570000, std::move(items)));
  }
  {
    // The same bytes under a renamed section: nothing pairs with it.
    std::vector<IntegrityItem> items = base_items();
    items[1].name = ".text2";
    copies.push_back(module_of(4, 0x890000, std::move(items)));
  }
  {
    // One item fewer.
    std::vector<IntegrityItem> items = base_items();
    items.pop_back();
    copies.push_back(module_of(5, 0x10000, std::move(items)));
  }
  {
    // Same items in another order: pairing by (kind, name) still matches.
    std::vector<IntegrityItem> items = base_items();
    std::swap(items[0], items[1]);
    copies.push_back(module_of(6, 0x10000, std::move(items)));
  }
  // 1, 2 and 6 match each other.
  EXPECT_EQ(expect_decide_equals_compare(pointers(copies)), 6u);
}

// ---- seeded random pairs --------------------------------------------------------

/// A clean synthetic module: a raw header, an rva-sensitive .text with
/// relocation slots, a raw .rdata.  ELF images use 8-byte biased slots
/// (plus some 4-byte truncated ones), PE images 4-byte slots.
struct SynthImage {
  bool elf = false;
  Bytes header;
  Bytes text;  // slots hold zero; to_copy() writes base + rva
  Bytes rdata;
  struct Slot {
    std::size_t offset;
    std::uint32_t width;
    std::uint32_t rva;
  };
  std::vector<Slot> slots;

  static SynthImage random(Xoshiro256& rng) {
    SynthImage img;
    img.elf = rng.below(2) == 1;
    img.header = Bytes(32 + rng.below(32));
    for (auto& b : img.header) {
      b = static_cast<std::uint8_t>(rng.next());
    }
    img.text = Bytes(128 + rng.below(512));
    for (auto& b : img.text) {
      b = static_cast<std::uint8_t>(rng.next());
    }
    for (std::size_t off = rng.below(16); off + 8 <= img.text.size();
         off += 12 + rng.below(24)) {
      const std::uint32_t width = img.elf && rng.below(3) != 0 ? 8 : 4;
      img.slots.push_back(
          {off, width, static_cast<std::uint32_t>(0x100 + rng.below(0x8000))});
      off += width;
    }
    img.rdata = Bytes(64 + rng.below(64));
    for (auto& b : img.rdata) {
      b = static_cast<std::uint8_t>(rng.next());
    }
    return img;
  }

  bool in_slot(std::size_t pos) const {
    for (const Slot& s : slots) {
      if (pos >= s.offset && pos < s.offset + s.width) {
        return true;
      }
    }
    return false;
  }

  ParsedModule to_copy(mc::test::ContentStore& store, vmm::DomainId dom,
                       std::uint32_t base) const {
    Bytes t = text;
    for (const Slot& s : slots) {
      if (s.width == 8) {
        store_le64(MutableByteView(t), s.offset,
                   (elf::kKernelBias | base) + s.rva);
      } else {
        store_le32(MutableByteView(t), s.offset, base + s.rva);
      }
    }
    std::vector<IntegrityItem> items;
    items.push_back(make_item(store, ItemKind::kDosHeader, "IMAGE_DOS_HEADER",
                              header, false));
    items.push_back(
        make_item(store, ItemKind::kSectionData, ".text", std::move(t), true));
    items.push_back(
        make_item(store, ItemKind::kSectionData, ".rdata", rdata, false));
    ParsedModule m = module_of(dom, base, std::move(items));
    if (elf) {
      m.fixups = FixupPolicy{8, 4, elf::kKernelBias};
    }
    return m;
  }
};

TEST(DecideEquivalence, SeededRandomPairs) {
  Xoshiro256 rng(0xDEC1DE);
  constexpr std::uint32_t kBases[] = {0x00010000, 0x00230000, 0x00570000,
                                      0x00890000, 0x00A10000};
  constexpr std::size_t kPools = 200;
  constexpr std::size_t kCopies = 4;
  std::size_t pairs = 0;
  std::size_t matches = 0;
  for (std::size_t p = 0; p < kPools; ++p) {
    mc::test::ContentStore store;  // this pool's item buffers
    const SynthImage img = SynthImage::random(rng);
    std::vector<ParsedModule> copies;
    for (std::size_t c = 0; c < kCopies; ++c) {
      // Bases drawn from a small set, so some copies share one.
      const std::uint32_t base = kBases[rng.below(std::size(kBases))];
      ParsedModule m =
          img.to_copy(store, static_cast<vmm::DomainId>(c + 1), base);
      Bytes text = m.items[1].content_copy();
      const std::size_t pos = rng.below(text.size() - 8);
      switch (rng.below(16)) {
        default:  // clean, half of the copies
          break;
        case 1:  // byte flip, inside or outside a relocation window
          text[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
          break;
        case 2: {  // a slot relocated against a peer's base
          const auto& s = img.slots[rng.below(img.slots.size())];
          const std::uint32_t other = kBases[rng.below(std::size(kBases))];
          if (s.width == 8) {
            store_le64(MutableByteView(text), s.offset,
                       (elf::kKernelBias | other) + s.rva);
          } else {
            store_le32(MutableByteView(text), s.offset, other + s.rva);
          }
          break;
        }
        case 3: {  // crafted relocated-looking word outside the slots
          if (!img.in_slot(pos) && !img.in_slot(pos + 3)) {
            const std::uint32_t peer = kBases[rng.below(std::size(kBases))];
            store_le32(MutableByteView(text), pos,
                       load_le32(ByteView(text), pos) + (base - peer));
          }
          break;
        }
        case 4:  // raw header flip
          store.edit(m.items[0], [&](Bytes& b) {
            b[rng.below(b.size())] ^= 0x40;
          });
          break;
        case 5:  // raw .rdata flip
          store.edit(m.items[2], [&](Bytes& b) {
            b[rng.below(b.size())] ^= 0x01;
          });
          break;
        case 6:  // truncated .text
          text.resize(text.size() - 1 - rng.below(4));
          break;
        case 7:  // injected section
          m.items.push_back(make_item(store, ItemKind::kSectionData, ".inject",
                                      Bytes(16, 0xCC), true));
          break;
      }
      m.items[1].view = store.hold(std::move(text));
      copies.push_back(std::move(m));
    }
    matches += expect_decide_equals_compare(pointers(copies));
    pairs += kCopies * (kCopies - 1);
    if (HasFailure()) {
      FAIL() << "pool " << p;
    }
  }
  EXPECT_GE(pairs, 2000u);
  // Both verdicts are well represented.
  EXPECT_GT(matches, pairs / 10);
  EXPECT_LT(matches, pairs - pairs / 10);
}

// ---- one hash per distinct form -------------------------------------------------

/// Independent count of the forms a scan's exact fallback must digest: for
/// each pair that is not decided by canonical digest vectors, the two
/// adjusted (or raw) buffers of the first item whose bytes differ.
std::size_t distinct_fallback_forms(PoolCopies& pool) {
  SimClock clock;
  const std::optional<CanonicalPool> canon =
      pool.checker.pipeline().normalize().canonicalize(pool.exs, clock);
  const std::vector<const ParsedModule*> copies = pool.copies();
  std::set<std::pair<std::size_t, Bytes>> forms;
  for (std::size_t x = 0; x < copies.size(); ++x) {
    for (std::size_t y = x + 1; y < copies.size(); ++y) {
      const ParsedModule& a = *copies[x];
      const ParsedModule& b = *copies[y];
      if (canon && canon->eligible(a.domain) && canon->eligible(b.domain)) {
        continue;
      }
      EXPECT_EQ(a.items.size(), b.items.size());
      for (std::size_t i = 0; i < a.items.size(); ++i) {
        Bytes fa = a.items[i].content_copy();
        Bytes fb = b.items[i].content_copy();
        if (a.items[i].rva_sensitive) {
          adjust_fixups(MutableByteView(fa), a.base, MutableByteView(fb),
                        b.base, a.fixups);
        }
        if (fa != fb) {
          const bool differ =
              crypto::hash_bytes(kMd5, fa) != crypto::hash_bytes(kMd5, fb);
          forms.insert({i, std::move(fa)});
          forms.insert({i, std::move(fb)});
          if (differ) {
            break;
          }
        }
      }
    }
  }
  return forms.size();
}

struct ScanCounters {
  PoolScanReport report;
  std::uint64_t items = 0;
  std::uint64_t hashes = 0;
};

ScanCounters scan_counted(const vmm::Hypervisor& hv, const std::string& module,
                          const std::vector<vmm::DomainId>& vms,
                          std::size_t workers = 1) {
  telemetry::MetricRegistry reg;
  ModCheckerConfig cfg;
  cfg.metrics = &reg;
  cfg.worker_threads = workers;
  ScanCounters out;
  out.report = ModChecker(hv, std::move(cfg)).scan_pool(module, vms);
  out.items = reg.counter("pipeline.compare.fallback_items").value();
  out.hashes = reg.counter("pipeline.compare.fallback_hashes").value();
  return out;
}

void expect_same_verdicts(const PoolScanReport& a, const PoolScanReport& b) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i].vm, b.verdicts[i].vm);
    EXPECT_EQ(a.verdicts[i].successes, b.verdicts[i].successes)
        << "vm " << a.verdicts[i].vm;
    EXPECT_EQ(a.verdicts[i].total, b.verdicts[i].total);
    EXPECT_EQ(a.verdicts[i].clean, b.verdicts[i].clean);
  }
}

PoolScanReport faithful_scan(const vmm::Hypervisor& hv,
                             const std::string& module,
                             const std::vector<vmm::DomainId>& vms) {
  ModCheckerConfig cfg;
  cfg.paper_faithful = true;
  return ModChecker(hv, std::move(cfg)).scan_pool(module, vms);
}

TEST(FallbackForms, InfectedPoolHashesEachDistinctFormOnce) {
  constexpr std::size_t t = 15;
  auto env = make_env(t);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  telemetry::MetricRegistry reg;
  telemetry::TraceRecorder rec;
  ModCheckerConfig cfg;
  cfg.metrics = &reg;
  cfg.tracer = &rec;
  const PoolScanReport report =
      ModChecker(env->hypervisor(), std::move(cfg))
          .scan_pool("hal.dll", env->guests());
  EXPECT_EQ(report.fallback_pairs, t - 1);
  const std::uint64_t hashes =
      reg.counter("pipeline.compare.fallback_hashes").value();
  const std::uint64_t items =
      reg.counter("pipeline.compare.fallback_items").value();
  PoolCopies pool(env->hypervisor(), "hal.dll", env->guests());
  // The infected copy's adjusted item and the clean one: two forms, where
  // hashing every fallback pair in full would run 28 digests or more.
  EXPECT_EQ(hashes, distinct_fallback_forms(pool));
  EXPECT_EQ(hashes, 2u);
  EXPECT_LT(hashes, 2 * report.fallback_pairs);
  EXPECT_GE(items, report.fallback_pairs);
  // Every pair has a settled peer: the delta plan decides every item.
  const std::uint64_t delta = reg.counter("canonical.delta_items").value();
  EXPECT_EQ(delta, items);
  expect_same_verdicts(report,
                       faithful_scan(env->hypervisor(), "hal.dll",
                                     env->guests()));

  // The pipeline's own compare span carries the counts.
  std::size_t compare_spans = 0;
  for (const telemetry::SpanRecord& s : rec.drain()) {
    if (s.name != "compare") {
      continue;
    }
    ++compare_spans;
    std::set<std::string> keys;
    for (const auto& arg : s.args) {
      keys.insert(arg.key);
      if (arg.key == "fallback_hashes") {
        EXPECT_EQ(arg.value, std::to_string(hashes));
      }
      if (arg.key == "fallback_items") {
        EXPECT_EQ(arg.value, std::to_string(items));
      }
      if (arg.key == "delta_items") {
        EXPECT_EQ(arg.value, std::to_string(delta));
      }
      if (arg.key.rfind("delta_refusals.", 0) == 0) {
        EXPECT_EQ(arg.value, "0") << arg.key;
      }
    }
    EXPECT_TRUE(keys.count("fallback_items") == 1 &&
                keys.count("fallback_hashes") == 1);
    EXPECT_EQ(keys.count("delta_items"), 1u);
    EXPECT_EQ(keys.count("delta_refusals.unsynced"), 1u);
  }
  EXPECT_EQ(compare_spans, 1u);
}

TEST(FallbackForms, EveryVmPatchedDifferentlyInTheSameItem) {
  // Adversarial pool: each VM carries its own patch of the same .text
  // byte, so no copy reduces and every pair falls back.  Lookups stay
  // exact and each VM's form is hashed once.
  constexpr std::size_t t = 8;
  auto env = make_env(t);
  for (std::size_t k = 0; k < t; ++k) {
    attacks::BytePatchAttack(0x1080, static_cast<std::uint8_t>(k + 1))
        .apply(*env, env->guests()[k], "ntfs.sys");
  }
  const ScanCounters scan =
      scan_counted(env->hypervisor(), "ntfs.sys", env->guests());
  EXPECT_EQ(scan.report.fallback_pairs, t * (t - 1) / 2);
  PoolCopies pool(env->hypervisor(), "ntfs.sys", env->guests());
  EXPECT_EQ(scan.hashes, distinct_fallback_forms(pool));
  EXPECT_EQ(scan.hashes, t);
  expect_same_verdicts(scan.report, faithful_scan(env->hypervisor(),
                                                  "ntfs.sys", env->guests()));
  for (const PoolVmVerdict& v : scan.report.verdicts) {
    EXPECT_EQ(v.successes, 0u);
  }
}

TEST(FallbackForms, FaithfulScanKeepsFullComparePerPair) {
  // paper_faithful sends every pair through compare(): both digests of
  // every item, no shared table.
  auto env = make_env(4);
  telemetry::MetricRegistry reg;
  ModCheckerConfig cfg;
  cfg.paper_faithful = true;
  cfg.metrics = &reg;
  ModChecker checker(env->hypervisor(), std::move(cfg));
  const PoolScanReport report = checker.scan_pool("hal.dll", env->guests());
  const PoolCopies pool(env->hypervisor(), "hal.dll", env->guests());
  const std::size_t items = pool.exs[0].copy().items.size();
  EXPECT_EQ(report.fallback_pairs, 6u);
  EXPECT_EQ(reg.counter("pipeline.compare.fallback_items").value(),
            6 * items);
  EXPECT_EQ(reg.counter("pipeline.compare.fallback_hashes").value(),
            2 * 6 * items);
}

// ---- simulated totals do not depend on worker_threads ---------------------------

TEST(FallbackForms, ScanTotalsIndependentOfWorkerThreads) {
  auto env = make_env(8);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  attacks::OpcodeReplaceAttack{}.apply(*env, env->guests()[5], "hal.dll");
  const ScanCounters seq =
      scan_counted(env->hypervisor(), "hal.dll", env->guests(), 1);
  EXPECT_GT(seq.report.fallback_pairs, 0u);
  EXPECT_EQ(seq.report.wall_time, seq.report.cpu_times.total());
  for (int run = 0; run < 3; ++run) {
    const ScanCounters par =
        scan_counted(env->hypervisor(), "hal.dll", env->guests(), 4);
    EXPECT_EQ(par.report.cpu_times.total(), seq.report.cpu_times.total());
    EXPECT_EQ(par.hashes, seq.hashes);
    EXPECT_EQ(par.items, seq.items);
    EXPECT_EQ(par.report.fallback_pairs, seq.report.fallback_pairs);
    expect_same_verdicts(par.report, seq.report);
  }
}

// ---- Algorithm 2's blind spot, pinned -------------------------------------------
//
// Algorithm 2 accepts any difference that decodes to the same RVA on both
// sides.  Patching a non-relocated word c on copy X to c + (base_X -
// base_P) therefore matches P, and only peers at P's base.  compare(),
// decide() and the canonical fast path must all agree with the paper here.

TEST(BlindSpot, CraftedWordMatchesOnlyThePeerItWasCraftedFor) {
  mc::test::ContentStore store;
  constexpr std::uint32_t kBaseP = 0x00010000;
  constexpr std::uint32_t kBaseX = 0x00230000;
  constexpr std::uint32_t kBaseQ = 0x00570000;
  constexpr std::uint32_t kClean = 0x90909090;  // word c at offset 8
  const auto text = [](std::uint32_t base, std::uint32_t word) {
    Bytes b(16, 0xCC);
    store_le32(MutableByteView(b), 4, base + 0x42);  // the one relocation
    store_le32(MutableByteView(b), 8, word);
    return b;
  };
  const auto copy = [&](vmm::DomainId dom, std::uint32_t base,
                        std::uint32_t word) {
    std::vector<IntegrityItem> items;
    items.push_back(make_item(store, ItemKind::kDosHeader, "IMAGE_DOS_HEADER",
                              Bytes{0x4D, 0x5A, 0, 1}, false));
    items.push_back(make_item(store, ItemKind::kSectionData, ".text",
                              text(base, word), true));
    return module_of(dom, base, std::move(items));
  };
  const ParsedModule p = copy(1, kBaseP, kClean);
  const ParsedModule x = copy(2, kBaseX, kClean + (kBaseX - kBaseP));
  const ParsedModule q = copy(3, kBaseQ, kClean);
  const ParsedModule p2 = copy(4, kBaseP, kClean);  // shares P's base

  const IntegrityChecker checker;
  DigestTable forms(kMd5, vmi::HostCostModel{});
  const auto decided = [&](const ParsedModule& a, const ParsedModule& b) {
    SimClock c1;
    SimClock c2;
    const bool full = checker.compare(a, b, c1).all_match;
    EXPECT_EQ(checker.decide(a, b, c2, forms), full);
    return full;
  };
  const auto fast_path_equates = [](const ParsedModule& a,
                                    const ParsedModule& b) {
    SimClock clock;
    const CanonicalPool pool = CanonicalPool::elect(
        {&a, &b}, clock, kMd5, vmi::HostCostModel{});
    return pool.eligible(a.domain) && pool.eligible(b.domain) &&
           pool.digests(a.domain) == pool.digests(b.domain);
  };

  // The crafted word passes against P and every peer at P's base ...
  EXPECT_TRUE(decided(x, p));
  EXPECT_TRUE(decided(p, x));
  EXPECT_TRUE(decided(x, p2));
  EXPECT_TRUE(fast_path_equates(p, x));
  EXPECT_TRUE(fast_path_equates(x, p2));
  // ... and nowhere else.
  EXPECT_FALSE(decided(x, q));
  EXPECT_FALSE(decided(q, x));
  EXPECT_FALSE(fast_path_equates(q, x));
  EXPECT_FALSE(fast_path_equates(x, q));
  // Honest copies match at every base.
  EXPECT_TRUE(decided(p, q));
  EXPECT_TRUE(fast_path_equates(p, q));
}

// ---- a repeated VM id votes once ------------------------------------------------

TEST(PoolScanDedup, RepeatedVmIdVotesOnce) {
  auto env = make_env(4);
  const std::vector<vmm::DomainId>& g = env->guests();
  attacks::InlineHookAttack{}.apply(*env, g[0], "hal.dll");
  ModChecker checker(env->hypervisor());
  // Three copies of the infected g0 used to outvote the honest g1 through
  // self-comparisons (2/3 each) and flag g1 (0/3).
  const PoolScanReport repeated =
      checker.scan_pool("hal.dll", {g[0], g[0], g[0], g[1]});
  ASSERT_EQ(repeated.verdicts.size(), 2u);
  EXPECT_EQ(repeated.verdicts[0].vm, g[0]);
  EXPECT_EQ(repeated.verdicts[1].vm, g[1]);
  for (const PoolVmVerdict& v : repeated.verdicts) {
    EXPECT_EQ(v.total, 1u);
    EXPECT_EQ(v.successes, 0u);
    EXPECT_EQ(v.peers_total, 1u);
  }
  expect_same_verdicts(repeated, checker.scan_pool("hal.dll", {g[0], g[1]}));
  expect_same_verdicts(
      checker.scan_pool("hal.dll", {g[0], g[1], g[2], g[3], g[2], g[1]}),
      checker.scan_pool("hal.dll", g));
}

TEST(PoolScanDedup, CachedParallelScanVotesOncePerVm) {
  auto env = make_env(4);
  const std::vector<vmm::DomainId>& g = env->guests();
  attacks::InlineHookAttack{}.apply(*env, g[0], "hal.dll");
  ModCheckerConfig cfg;
  cfg.worker_threads = 4;
  IncrementalScanner scanner(env->hypervisor(), cfg);
  const PoolScanReport fresh = ModChecker(env->hypervisor(), cfg)
                                   .scan_pool("hal.dll", g);
  const std::vector<vmm::DomainId> repeated = {g[0], g[1], g[0], g[2],
                                               g[3], g[1], g[3], g[0]};
  // The first scan fills the cache, the second reuses it.
  for (int round = 0; round < 2; ++round) {
    const PoolScanReport report = scanner.scan("hal.dll", repeated);
    ASSERT_EQ(report.verdicts.size(), 4u) << "round " << round;
    expect_same_verdicts(report, fresh);
  }
}

}  // namespace
