// Differential suite: the canonical-RVA fast path and the digest memo must
// be *verdict-identical* to the paper-faithful pairwise implementation.
//
// Every test runs the same pool through a fast checker (the default config:
// canonical fast path, digest memo, session reuse) and a paper_faithful one
// (all three off) and demands bit-equal verdicts, flagged items and vote
// counts — across clean pools of every size the paper used, the E1-E4
// infections, and the fallback corners (reference infected, unresolvable
// diffs, shape mismatches).  Every such scan also recomputes each
// eligible copy's digests from scratch: a copy the pool settled by a byte
// compare must carry exactly the digest hashing it would give.
// CanonicalPool's eligibility rules get direct synthetic coverage at the
// bottom, followed by ELF digest identity and the pool's hash accounting.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "elf/parser.hpp"
#include "guestos/kernel.hpp"
#include "guestos/ko_loader.hpp"
#include "item_test_util.hpp"
#include "modchecker/canonical.hpp"
#include "modchecker/checker.hpp"
#include "modchecker/item_content.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/pipeline.hpp"
#include "modchecker/rva_adjust.hpp"
#include "pe/builder.hpp"
#include "pe/constants.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace mc;
using namespace mc::core;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

ModCheckerConfig fast_config() {
  ModCheckerConfig cfg;  // fast path, memo and session reuse are defaults
  EXPECT_FALSE(cfg.paper_faithful);
  return cfg;
}

ModCheckerConfig faithful_config() {
  ModCheckerConfig cfg;
  cfg.paper_faithful = true;
  return cfg;
}

void expect_same_verdicts(const PoolScanReport& a, const PoolScanReport& b) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i].vm, b.verdicts[i].vm);
    EXPECT_EQ(a.verdicts[i].successes, b.verdicts[i].successes)
        << "vm " << a.verdicts[i].vm;
    EXPECT_EQ(a.verdicts[i].total, b.verdicts[i].total);
    EXPECT_EQ(a.verdicts[i].clean, b.verdicts[i].clean)
        << "vm " << a.verdicts[i].vm;
  }
}

// ---- digest identity: byte compares never change a digest ----------------------
//
// The pool settles a copy by byte comparison (against the reference, or
// against the bytes that established an item's canonical digest) before it
// runs a hash.  Whatever path settled it, every eligible copy's digest must
// be exactly the hash a from-scratch computation gives.

/// Algorithm 2 of `r`'s item i against `x`'s on owned copies: returns the
/// adjusted (reference side, copy side) buffers.
std::pair<Bytes, Bytes> adjusted(const ParsedModule& r, const ParsedModule& x,
                                 std::size_t i) {
  Bytes ref = r.items[i].content_copy();
  Bytes mod = x.items[i].content_copy();
  const RvaAdjustResult adj = adjust_fixups(MutableByteView(ref), r.base,
                                            MutableByteView(mod), x.base,
                                            x.fixups);
  EXPECT_EQ(adj.unresolved_diffs, 0u) << "vm " << x.domain << " item " << i;
  return {std::move(ref), std::move(mod)};
}

/// The digest every eligible copy's item i must carry, computed from
/// scratch: the raw hash for raw items; for rva-sensitive items the hash of
/// the copy's adjusted bytes — for a copy at the reference's base, the
/// reference adjusted against any eligible differing-base copy (raw when
/// there is none).
crypto::Digest fresh_digest(const CanonicalPool& pool,
                            const std::vector<const ParsedModule*>& copies,
                            const ParsedModule& r, const ParsedModule& x,
                            std::size_t i) {
  constexpr auto kMd5 = crypto::HashAlgorithm::kMd5;
  if (!x.items[i].rva_sensitive) {
    return hash_item_content(kMd5, x.items[i]);
  }
  if (x.base != r.base) {
    return crypto::hash_bytes(kMd5, adjusted(r, x, i).second);
  }
  for (const ParsedModule* y : copies) {
    if (y->base != r.base && pool.eligible(y->domain)) {
      return crypto::hash_bytes(kMd5, adjusted(r, *y, i).first);
    }
  }
  return hash_item_content(kMd5, x.items[i]);
}

/// Checks every eligible copy's digest vector against a fresh computation;
/// returns the number of eligible copies.
std::size_t expect_digests_fresh(const CanonicalPool& pool,
                                 const std::vector<const ParsedModule*>& copies) {
  const ParsedModule* r = nullptr;
  for (const ParsedModule* copy : copies) {
    if (copy->domain == pool.reference_domain()) {
      r = copy;
    }
  }
  EXPECT_NE(r, nullptr);
  std::size_t eligible = 0;
  for (const ParsedModule* x : copies) {
    if (r == nullptr || !pool.eligible(x->domain)) {
      continue;
    }
    ++eligible;
    const std::vector<crypto::Digest>& got = pool.digests(x->domain);
    EXPECT_EQ(got.size(), r->items.size());
    for (std::size_t i = 0; i < got.size() && i < x->items.size(); ++i) {
      EXPECT_EQ(got[i], fresh_digest(pool, copies, *r, *x, i))
          << x->name << " vm " << x->domain << " item " << x->items[i].name;
    }
  }
  return eligible;
}

/// Acquire + parse of every pool copy through `checker`'s own stages — the
/// extractions pool_scan would normalize.
std::vector<Extraction> extract_pool(ModChecker& checker,
                                     const std::string& module,
                                     const std::vector<vmm::DomainId>& vms) {
  CheckPipeline& p = checker.pipeline();
  std::vector<Extraction> out;
  for (const vmm::DomainId vm : vms) {
    Extraction ex;
    SimClock clock;
    const auto image = p.acquire().extract_with_retry(vm, module, clock,
                                                      ex.faults, ex.attempts);
    if (image && *image) {
      p.parse().parse(**image, ex);
    }
    out.push_back(std::move(ex));
  }
  return out;
}

/// Elects the pool over `vms`' copies of `module` exactly as pool_scan does
/// and checks its digests; returns the number of eligible copies.
std::size_t expect_digests_fresh(const vmm::Hypervisor& hypervisor,
                                 const std::string& module,
                                 const std::vector<vmm::DomainId>& vms) {
  ModChecker checker(hypervisor, fast_config());
  const std::vector<Extraction> exs = extract_pool(checker, module, vms);
  SimClock clock;
  const std::optional<CanonicalPool> pool =
      checker.pipeline().normalize().canonicalize(exs, clock);
  EXPECT_TRUE(pool && !pool->empty()) << module;
  if (!pool || pool->empty()) {
    return 0;
  }
  std::vector<const ParsedModule*> copies;
  for (const Extraction& ex : exs) {
    if (ex.found && !ex.parse_failed) {
      copies.push_back(&ex.parsed);
    }
  }
  return expect_digests_fresh(*pool, copies);
}

/// Scans the same env with both configs and requires identical verdicts.
/// Returns the fast report for extra assertions.
PoolScanReport scan_both_ways(cloud::CloudEnvironment& env,
                              const std::string& module) {
  ModChecker fast(env.hypervisor(), fast_config());
  ModChecker faithful(env.hypervisor(), faithful_config());
  const auto a = fast.scan_pool(module, env.guests());
  const auto b = faithful.scan_pool(module, env.guests());
  expect_same_verdicts(a, b);
  EXPECT_EQ(b.fastpath_pairs, 0u);  // the faithful config never fast-paths
  expect_digests_fresh(env.hypervisor(), module, env.guests());
  return a;
}

// ---- clean pools --------------------------------------------------------------

class CleanPoolFastpath : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CleanPoolFastpath, VerdictsMatchAndEveryPairIsFast) {
  auto env = make_env(GetParam());
  for (const std::string module : {"hal.dll", "http.sys"}) {
    const auto report = scan_both_ways(*env, module);
    const std::size_t t = GetParam();
    EXPECT_EQ(report.fastpath_pairs, t * (t - 1) / 2) << module;
    EXPECT_EQ(report.fallback_pairs, 0u) << module;
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, CleanPoolFastpath,
                         ::testing::Values(2, 3, 5, 8, 15));

// ---- the paper's experiments E1-E4 -------------------------------------------

TEST(FastpathEquivalence, E1_OpcodeReplace) {
  auto env = make_env(6);
  attacks::OpcodeReplaceAttack{}.apply(*env, env->guests()[2], "hal.dll");
  const auto report = scan_both_ways(*env, "hal.dll");
  // The infected copy cannot reduce to the clean canonical: its 5 pairs
  // (and only those) run the exact fallback.
  EXPECT_EQ(report.fallback_pairs, 5u);
  EXPECT_EQ(report.fastpath_pairs, 10u);
}

TEST(FastpathEquivalence, E2_InlineHook) {
  auto env = make_env(7);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[4], "hal.dll");
  scan_both_ways(*env, "hal.dll");
}

TEST(FastpathEquivalence, E3_StubPatch) {
  auto env = make_env(5);
  attacks::StubPatchAttack{}.apply(*env, env->guests()[1], "dummy.sys");
  const auto report = scan_both_ways(*env, "dummy.sys");
  // The DOS stub is not rva-sensitive: the infected copy stays *eligible*
  // and is outvoted purely on digest-vector inequality — no fallback.
  EXPECT_EQ(report.fallback_pairs, 0u);
  EXPECT_EQ(report.fastpath_pairs, 10u);
}

TEST(FastpathEquivalence, E4_DllImportInject) {
  auto env = make_env(5);
  attacks::DllImportInjectAttack{}.apply(*env, env->guests()[3], "dummy.sys");
  scan_both_ways(*env, "dummy.sys");
}

TEST(FastpathEquivalence, HeaderTamper) {
  auto env = make_env(6);
  attacks::HeaderTamperAttack{}.apply(*env, env->guests()[2], "ntfs.sys");
  scan_both_ways(*env, "ntfs.sys");
}

TEST(FastpathEquivalence, InfectedReferenceStillLocalized) {
  // The *first* pool VM seeds the first canonical build.  Infecting it
  // leaves every clean copy ineligible against it, so the pool re-elects
  // the first clean copy as the reference: only the infected copy's t-1
  // pairs take the exact fallback (not all C(t,2)), and the verdicts still
  // equal the faithful pairwise scan.
  for (const std::size_t t : {6u, 15u}) {
    auto env = make_env(t);
    attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
    const auto report = scan_both_ways(*env, "hal.dll");
    std::size_t dirty = 0;
    for (const auto& v : report.verdicts) {
      if (!v.clean) {
        ++dirty;
        EXPECT_EQ(v.vm, env->guests()[0]);
      }
    }
    EXPECT_EQ(dirty, 1u) << "t=" << t;
    EXPECT_EQ(report.fallback_pairs, t - 1) << "t=" << t;
    EXPECT_EQ(report.fastpath_pairs, (t - 1) * (t - 2) / 2) << "t=" << t;
  }
}

TEST(FastpathEquivalence, TwoInfectedVmsIncludingReference) {
  auto env = make_env(8);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  attacks::OpcodeReplaceAttack{}.apply(*env, env->guests()[5], "hal.dll");
  const auto report = scan_both_ways(*env, "hal.dll");
  // Re-elected reference: the two infected copies' 7 + 7 - 1 pairs fall
  // back, the six clean copies' C(6,2) pairs stay fast.
  EXPECT_EQ(report.fallback_pairs, 13u);
  EXPECT_EQ(report.fastpath_pairs, 15u);
}

TEST(FastpathEquivalence, ReelectionIsTracedAndCounted) {
  auto env = make_env(5);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  telemetry::MetricRegistry reg;
  telemetry::TraceRecorder rec;
  ModCheckerConfig cfg = fast_config();
  cfg.metrics = &reg;
  cfg.tracer = &rec;
  ModChecker checker(env->hypervisor(), std::move(cfg));

  // Clean module: the first VM stays the reference, nothing re-elected.
  checker.scan_pool("ntfs.sys", env->guests());
  // Infected first VM: re-elected onto the first clean copy.
  checker.scan_pool("hal.dll", env->guests());

  std::vector<const telemetry::SpanRecord*> normalize;
  const std::vector<telemetry::SpanRecord> spans = rec.drain();
  for (const auto& s : spans) {
    if (s.name == "normalize") {
      normalize.push_back(&s);
    }
  }
  ASSERT_EQ(normalize.size(), 2u);
  const auto arg = [](const telemetry::SpanRecord& s, const std::string& key) {
    for (const auto& a : s.args) {
      if (a.key == key) {
        return a.value;
      }
    }
    return std::string("<missing>");
  };
  EXPECT_EQ(arg(*normalize[0], "reference_vm"),
            std::to_string(env->guests()[0]));
  EXPECT_EQ(arg(*normalize[0], "reelected"), "0");
  EXPECT_EQ(arg(*normalize[1], "reference_vm"),
            std::to_string(env->guests()[1]));
  EXPECT_EQ(arg(*normalize[1], "reelected"), "1");
  EXPECT_EQ(reg.counter("canonical.reelections").value(), 1u);
}

TEST(FastpathEquivalence, BytePatchDropsOnlyVictimPairsToFallback) {
  auto env = make_env(6);
  attacks::BytePatchAttack(0x1080, 0x5A).apply(*env, env->guests()[3],
                                               "ntfs.sys");
  const auto report = scan_both_ways(*env, "ntfs.sys");
  EXPECT_EQ(report.fallback_pairs, 5u);    // victim vs 5 clean peers
  EXPECT_EQ(report.fastpath_pairs, 10u);   // clean C(5,2)
}

// ---- check_module digest memo -------------------------------------------------

void expect_same_check(const CheckReport& a, const CheckReport& b) {
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.total_comparisons, b.total_comparisons);
  EXPECT_EQ(a.subject_clean, b.subject_clean);
  EXPECT_EQ(a.flagged_items, b.flagged_items);
  ASSERT_EQ(a.comparisons.size(), b.comparisons.size());
  for (std::size_t i = 0; i < a.comparisons.size(); ++i) {
    const auto& ca = a.comparisons[i];
    const auto& cb = b.comparisons[i];
    EXPECT_EQ(ca.other_domain, cb.other_domain);
    EXPECT_EQ(ca.all_match, cb.all_match);
    ASSERT_EQ(ca.items.size(), cb.items.size());
    for (std::size_t k = 0; k < ca.items.size(); ++k) {
      EXPECT_EQ(ca.items[k].item_name, cb.items[k].item_name);
      EXPECT_EQ(ca.items[k].match, cb.items[k].match);
      EXPECT_EQ(ca.items[k].digest_subject.hex(),
                cb.items[k].digest_subject.hex());
      EXPECT_EQ(ca.items[k].digest_other.hex(),
                cb.items[k].digest_other.hex());
    }
  }
}

TEST(DigestMemo, CheckModuleBitIdenticalCleanAndInfected) {
  auto env = make_env(6);
  attacks::HeaderTamperAttack{}.apply(*env, env->guests()[2], "ntfs.sys");
  ModChecker fast(env->hypervisor(), fast_config());
  ModChecker faithful(env->hypervisor(), faithful_config());
  for (const std::string module : {"hal.dll", "ntfs.sys"}) {
    expect_same_check(fast.check_module(env->guests()[0], module),
                      faithful.check_module(env->guests()[0], module));
  }
}

// ---- duplicate item names ------------------------------------------------------
//
// Section names are guest-controlled and need not be unique, so the memo
// must never let two items that share a name share a digest.

IntegrityItem raw_item(mc::test::ContentStore& store, const std::string& name,
                       Bytes bytes) {
  IntegrityItem item;
  item.kind = ItemKind::kSectionData;
  item.name = name;
  item.view = store.hold(std::move(bytes));
  item.rva_sensitive = false;
  return item;
}

TEST(DigestMemo, DuplicateItemNamesAreMemoizedApart) {
  mc::test::ContentStore store;
  // Both copies carry two ".rdata" items; only the subject's second one
  // differs.  Keyed by name, the memo served the first item's digest for
  // the second on both sides and the patch matched.
  const auto make = [&store](vmm::DomainId dom, std::uint8_t second_fill) {
    ParsedModule m;
    m.domain = dom;
    m.name = "dup.sys";
    m.base = 0x10000;
    m.items.push_back(raw_item(store, ".rdata", Bytes(64, 0x11)));
    m.items.push_back(raw_item(store, ".rdata", Bytes(64, second_fill)));
    return m;
  };
  const ParsedModule subject = make(1, 0x99);
  const ParsedModule other = make(2, 0x22);
  const IntegrityChecker checker;
  SimClock clock;
  EXPECT_FALSE(checker.compare(subject, other, clock).all_match);

  telemetry::MetricRegistry reg;
  DigestTable memo(checker.algorithm(), {}, &reg);
  const PairComparison memoized =
      checker.compare(subject, other, clock, &memo);
  EXPECT_FALSE(memoized.all_match);
  ASSERT_EQ(memoized.items.size(), 2u);
  EXPECT_TRUE(memoized.items[0].match);
  EXPECT_FALSE(memoized.items[1].match);
}

TEST(DigestMemo, DuplicateSectionNamesCheckMatchesFaithful) {
  // The same shape end to end: a driver with two ".rdata" sections loaded
  // on every guest, the subject's second section patched in guest memory.
  auto env = make_env(4);
  pe::PeBuilder builder("dup.sys");
  builder.set_image_base(0x00010000);
  builder.set_entry_point(builder.next_section_rva());
  builder.add_section(".text", Bytes(0x200, 0x90),
                      pe::kScnCntCode | pe::kScnMemExecute | pe::kScnMemRead);
  builder.add_section(".rdata", Bytes(0x100, 0x11),
                      pe::kScnCntInitializedData | pe::kScnMemRead);
  const std::uint32_t second_rva = builder.next_section_rva();
  builder.add_section(".rdata", Bytes(0x100, 0x22),
                      pe::kScnCntInitializedData | pe::kScnMemRead);
  builder.add_reloc_section();
  const Bytes file = builder.build();
  for (const vmm::DomainId vm : env->guests()) {
    env->loader(vm).load("dup.sys", file);
  }
  const vmm::DomainId subject = env->guests()[0];
  attacks::BytePatchAttack(second_rva + 8).apply(*env, subject, "dup.sys");

  const CheckReport fast = ModChecker(env->hypervisor(), fast_config())
                               .check_module(subject, "dup.sys");
  const CheckReport faithful =
      ModChecker(env->hypervisor(), faithful_config())
          .check_module(subject, "dup.sys");
  EXPECT_FALSE(faithful.subject_clean);
  expect_same_check(fast, faithful);
}

// ---- paper_faithful -------------------------------------------------------------

TEST(PaperFaithful, OneSwitchTurnsOffAllThreeFastPaths) {
  auto env = make_env(4);
  for (const bool faithful : {true, false}) {
    telemetry::MetricRegistry reg;
    ModCheckerConfig cfg;
    cfg.paper_faithful = faithful;
    cfg.metrics = &reg;
    ModChecker checker(env->hypervisor(), std::move(cfg));
    const PoolScanReport scan = checker.scan_pool("hal.dll", env->guests());
    checker.check_module(env->guests()[0], "hal.dll");
    const std::uint64_t memo_traffic =
        reg.counter("digest_memo.hits").value() +
        reg.counter("digest_memo.misses").value();
    SCOPED_TRACE(faithful ? "paper_faithful" : "default");
    // C(4, 2) = 6 pairs: all through Algorithm 2, or all by digest vector.
    EXPECT_EQ(scan.fastpath_pairs, faithful ? 0u : 6u);
    EXPECT_EQ(scan.fallback_pairs, faithful ? 6u : 0u);
    EXPECT_EQ(memo_traffic == 0, faithful);
    EXPECT_EQ(checker.session_pool_stats().created == 0, faithful);
  }
}

// ---- parallel fallback accounting (the wall-time fix) --------------------------

TEST(FastpathEquivalence, ParallelFallbackWallBelowCpu) {
  auto env = make_env(8);
  ModCheckerConfig cfg = faithful_config();  // every pair falls back
  cfg.worker_threads = 8;
  const auto report =
      ModChecker(env->hypervisor(), cfg).scan_pool("http.sys", env->guests());
  // 28 comparison tasks on 8 workers: the charged wall time must now be
  // the makespan, strictly below the summed CPU time.
  EXPECT_LT(report.wall_time, report.cpu_times.total());
  // And verdicts still match the sequential faithful scan.
  const auto seq = ModChecker(env->hypervisor(), faithful_config())
                       .scan_pool("http.sys", env->guests());
  expect_same_verdicts(report, seq);
}

// ---- CanonicalPool synthetic eligibility corners -------------------------------

ParsedModule synth_module(mc::test::ContentStore& store, vmm::DomainId dom,
                          std::uint32_t base, Bytes text_bytes) {
  ParsedModule m;
  m.domain = dom;
  m.name = "synth.sys";
  m.base = base;
  core::IntegrityItem header;
  header.kind = core::ItemKind::kDosHeader;
  header.name = "IMAGE_DOS_HEADER";
  header.view = store.hold({0x4D, 0x5A, 0x00, 0x01});
  header.rva_sensitive = false;
  m.items.push_back(std::move(header));
  core::IntegrityItem text;
  text.kind = core::ItemKind::kSectionData;
  text.name = ".text";
  text.view = store.hold(std::move(text_bytes));
  text.rva_sensitive = true;
  m.items.push_back(std::move(text));
  return m;
}

/// 16 bytes of "code" with one absolute-address operand at offset 4
/// pointing at RVA `rva` for a module loaded at `base`.
Bytes text_with_reloc(std::uint32_t base, std::uint32_t rva) {
  Bytes b = {0x55, 0x8B, 0xEC, 0xA1, 0, 0, 0, 0,
             0x90, 0x90, 0x90, 0x90, 0xC3, 0xCC, 0xCC, 0xCC};
  store_le32(b, 4, base + rva);
  return b;
}

TEST(CanonicalPoolUnit, HonestRelocationsShareOneCanonical) {
  mc::test::ContentStore store;
  const auto ref =
      synth_module(store, 1, 0x00010000, text_with_reloc(0x00010000, 0x42));
  const auto same =
      synth_module(store, 2, 0x00010000, text_with_reloc(0x00010000, 0x42));
  const auto moved =
      synth_module(store, 3, 0x00230000, text_with_reloc(0x00230000, 0x42));
  const auto moved2 =
      synth_module(store, 4, 0x00570000, text_with_reloc(0x00570000, 0x42));

  telemetry::MetricRegistry reg;
  CanonicalPool pool(crypto::HashAlgorithm::kMd5, vmi::HostCostModel{}, &reg);
  SimClock clock;
  pool.add(ref, clock);
  pool.add(same, clock);
  pool.add(moved, clock);
  pool.add(moved2, clock);
  pool.finalize(clock);

  EXPECT_TRUE(pool.eligible(1));
  EXPECT_TRUE(pool.eligible(2));
  EXPECT_TRUE(pool.eligible(3));
  EXPECT_TRUE(pool.eligible(4));
  EXPECT_EQ(reg.counter("canonical.canonicals_established").value(), 1u);
  // All four reduce to the same digest vector — including the same-base
  // copy, whose digest must be the *canonical* one, not the raw one.
  EXPECT_EQ(pool.digests(1), pool.digests(2));
  EXPECT_EQ(pool.digests(1), pool.digests(3));
  EXPECT_EQ(pool.digests(1), pool.digests(4));
  EXPECT_GT(clock.now(), 0u);
}

TEST(CanonicalPoolUnit, SameBaseContentDivergenceIsIneligible) {
  mc::test::ContentStore store;
  const auto ref =
      synth_module(store, 1, 0x00010000, text_with_reloc(0x00010000, 0x42));
  auto evil_bytes = text_with_reloc(0x00010000, 0x42);
  evil_bytes[9] ^= 0xFF;  // same base, one patched byte
  const auto evil = synth_module(store, 2, 0x00010000, std::move(evil_bytes));

  CanonicalPool pool(crypto::HashAlgorithm::kMd5, vmi::HostCostModel{});
  SimClock clock;
  pool.add(ref, clock);
  pool.add(evil, clock);
  pool.finalize(clock);
  EXPECT_TRUE(pool.eligible(1));
  EXPECT_FALSE(pool.eligible(2));
}

TEST(CanonicalPoolUnit, UnresolvedDiffIsIneligible) {
  mc::test::ContentStore store;
  const auto ref =
      synth_module(store, 1, 0x00010000, text_with_reloc(0x00010000, 0x42));
  // Differing base, but the operand decodes to a different RVA: Algorithm 2
  // must refuse to normalize it (rva1 != rva2).
  const auto evil =
      synth_module(store, 2, 0x00230000, text_with_reloc(0x00230000, 0x1099));

  CanonicalPool pool(crypto::HashAlgorithm::kMd5, vmi::HostCostModel{});
  SimClock clock;
  pool.add(ref, clock);
  pool.add(evil, clock);
  pool.finalize(clock);
  EXPECT_FALSE(pool.eligible(2));
}

TEST(CanonicalPoolUnit, DivergentCanonicalIsRejected) {
  mc::test::ContentStore store;
  // Two reloc sites A (offset 4) and B (offset 12).  Partner 2 relocates
  // only A (B matches the reference bytes), establishing canonical
  // "A->rva, B untouched".  Partner 3 relocates only B: it fully resolves
  // against the reference too, but to a *different* canonical — the pool
  // must refuse to treat 2 and 3 as equivalent (pairwise, 2 vs 3 would
  // mismatch).
  const std::uint32_t ref_base = 0x00010000;
  auto make_text = [&](std::uint32_t a_word, std::uint32_t b_word) {
    Bytes b(16, 0x90);
    store_le32(b, 4, a_word);
    store_le32(b, 12, b_word);
    return b;
  };
  const std::uint32_t rva_a = 0x111, rva_b = 0x222;
  const auto ref =
      synth_module(store, 1, ref_base,
                   make_text(ref_base + rva_a, ref_base + rva_b));
  const std::uint32_t base2 = 0x00230000;
  const auto m2 =
      synth_module(store, 2, base2,
                   make_text(base2 + rva_a, ref_base + rva_b));
  const std::uint32_t base3 = 0x00570000;
  const auto m3 =
      synth_module(store, 3, base3,
                   make_text(ref_base + rva_a, base3 + rva_b));

  CanonicalPool pool(crypto::HashAlgorithm::kMd5, vmi::HostCostModel{});
  SimClock clock;
  pool.add(ref, clock);
  pool.add(m2, clock);
  pool.add(m3, clock);
  pool.finalize(clock);
  EXPECT_TRUE(pool.eligible(2));   // established the canonical
  EXPECT_FALSE(pool.eligible(3));  // resolves, but to a different canonical
}

TEST(CanonicalPoolUnit, ShapeMismatchIsIneligible) {
  mc::test::ContentStore store;
  const auto ref =
      synth_module(store, 1, 0x00010000, text_with_reloc(0x00010000, 0x42));
  auto odd =
      synth_module(store, 2, 0x00230000, text_with_reloc(0x00230000, 0x42));
  odd.items[0].name = "IMAGE_DOS_HEADER_EX";  // renamed item
  telemetry::MetricRegistry reg;
  CanonicalPool pool(crypto::HashAlgorithm::kMd5, vmi::HostCostModel{}, &reg);
  SimClock clock;
  pool.add(ref, clock);
  pool.add(odd, clock);
  pool.finalize(clock);
  EXPECT_FALSE(pool.eligible(2));
  EXPECT_EQ(reg.counter("canonical.ineligible").value(), 1u);
}

// ---- CanonicalPool::elect ------------------------------------------------------

std::vector<const ParsedModule*> pointers(const std::vector<ParsedModule>& m) {
  std::vector<const ParsedModule*> out;
  for (const ParsedModule& module : m) {
    out.push_back(&module);
  }
  return out;
}

/// For every pair of eligible copies, digest-vector equality must equal
/// the exact pairwise verdict — whichever copy the election picked.
void expect_pool_matches_pairwise(const CanonicalPool& pool,
                                  const std::vector<const ParsedModule*>& m) {
  const IntegrityChecker checker;
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = i + 1; j < m.size(); ++j) {
      if (!pool.eligible(m[i]->domain) || !pool.eligible(m[j]->domain)) {
        continue;
      }
      SimClock clock;
      EXPECT_EQ(pool.digests(m[i]->domain) == pool.digests(m[j]->domain),
                checker.compare(*m[i], *m[j], clock).all_match)
          << "vm " << m[i]->domain << " vs vm " << m[j]->domain;
    }
  }
}

/// Honest copies of the synthetic module at distinct bases, one per domain
/// in [first, first + count).
std::vector<ParsedModule> honest_copies(mc::test::ContentStore& store,
                                        vmm::DomainId first,
                                        std::size_t count) {
  std::vector<ParsedModule> out;
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::uint32_t base = 0x00010000 + 0x00220000 * k;
    out.push_back(
        synth_module(store, first + k, base, text_with_reloc(base, 0x42)));
  }
  return out;
}

TEST(CanonicalPoolElect, CleanPoolKeepsFirstReferenceWithNoExtraBuild) {
  mc::test::ContentStore store;
  const std::vector<ParsedModule> copies = honest_copies(store, 1, 5);
  telemetry::MetricRegistry reg;
  SimClock elected_clock;
  const CanonicalPool pool =
      CanonicalPool::elect(pointers(copies), elected_clock,
                           crypto::HashAlgorithm::kMd5, vmi::HostCostModel{},
                           &reg);
  EXPECT_EQ(pool.reference_domain(), 1u);
  EXPECT_FALSE(pool.reelected());
  // One build only: exactly one canonicalization per copy, and the same
  // simulated charge as a hand-rolled single build.
  EXPECT_EQ(reg.counter("canonical.eligible").value(), 5u);
  EXPECT_EQ(reg.counter("canonical.ineligible").value(), 0u);
  EXPECT_EQ(reg.counter("canonical.reelections").value(), 0u);
  CanonicalPool single(crypto::HashAlgorithm::kMd5, vmi::HostCostModel{});
  SimClock single_clock;
  for (const ParsedModule& m : copies) {
    single.add(m, single_clock);
  }
  single.finalize(single_clock);
  EXPECT_EQ(elected_clock.now(), single_clock.now());
}

TEST(CanonicalPoolElect, InfectedFirstCopyIsOutvoted) {
  mc::test::ContentStore store;
  // Copy 1 carries an operand whose RVA no peer shares: nothing reduces
  // against it, so the first clean copy becomes the reference.
  std::vector<ParsedModule> copies;
  copies.push_back(synth_module(store, 1, 0x00010000,
                                text_with_reloc(0x00010000, 0x1099)));
  for (ParsedModule& m : honest_copies(store, 2, 4)) {
    copies.push_back(std::move(m));
  }
  SimClock clock;
  const CanonicalPool pool = CanonicalPool::elect(
      pointers(copies), clock, crypto::HashAlgorithm::kMd5,
      vmi::HostCostModel{});
  EXPECT_TRUE(pool.reelected());
  EXPECT_EQ(pool.reference_domain(), 2u);
  EXPECT_FALSE(pool.eligible(1));
  for (vmm::DomainId vm = 2; vm <= 5; ++vm) {
    EXPECT_TRUE(pool.eligible(vm)) << vm;
  }
  expect_pool_matches_pairwise(pool, pointers(copies));
}

TEST(CanonicalPoolElect, TieKeepsTheFirstBuild) {
  mc::test::ContentStore store;
  // Two copies that disagree: each would be the lone eligible copy of its
  // own build, so the rebuild stops at its first ineligible copy and the
  // first build stands.
  std::vector<ParsedModule> copies;
  copies.push_back(synth_module(store, 1, 0x00010000,
                                text_with_reloc(0x00010000, 0x1099)));
  copies.push_back(synth_module(store, 2, 0x00230000,
                                text_with_reloc(0x00230000, 0x42)));
  SimClock clock;
  const CanonicalPool pool = CanonicalPool::elect(
      pointers(copies), clock, crypto::HashAlgorithm::kMd5,
      vmi::HostCostModel{});
  EXPECT_FALSE(pool.reelected());
  EXPECT_EQ(pool.reference_domain(), 1u);
  EXPECT_TRUE(pool.eligible(1));
  EXPECT_FALSE(pool.eligible(2));
}

TEST(CanonicalPoolElect, DivergentCanonicalMatchesPairwiseInEveryOrder) {
  mc::test::ContentStore store;
  // The divergent-canonical construction (see DivergentCanonicalIsRejected)
  // plus an unresolvable copy, fed to the election in every order: some
  // orders keep the first build, some re-elect, and in all of them digest
  // equality over eligible copies equals the exact pairwise verdict.
  const std::uint32_t ref_base = 0x00010000;
  const std::uint32_t rva_a = 0x111, rva_b = 0x222;
  auto make_text = [](std::uint32_t a_word, std::uint32_t b_word) {
    Bytes b(16, 0x90);
    store_le32(b, 4, a_word);
    store_le32(b, 12, b_word);
    return b;
  };
  const std::uint32_t base2 = 0x00230000, base3 = 0x00570000;
  const std::uint32_t base4 = 0x00890000;
  std::vector<ParsedModule> copies;
  copies.push_back(
      synth_module(store, 1, ref_base,
                   make_text(ref_base + rva_a, ref_base + rva_b)));
  copies.push_back(
      synth_module(store, 2, base2,
                   make_text(base2 + rva_a, ref_base + rva_b)));
  copies.push_back(
      synth_module(store, 3, base3,
                   make_text(ref_base + rva_a, base3 + rva_b)));
  copies.push_back(
      synth_module(store, 4, base4,
                   make_text(base4 + rva_a + 8, base4 + rva_b)));

  std::vector<std::size_t> order = {0, 1, 2, 3};
  std::size_t reelections = 0;
  do {
    std::vector<const ParsedModule*> ordered;
    for (const std::size_t k : order) {
      ordered.push_back(&copies[k]);
    }
    SimClock clock;
    const CanonicalPool pool = CanonicalPool::elect(
        ordered, clock, crypto::HashAlgorithm::kMd5, vmi::HostCostModel{});
    reelections += pool.reelected() ? 1u : 0u;
    EXPECT_TRUE(pool.eligible(pool.reference_domain()));
    expect_pool_matches_pairwise(pool, ordered);
    expect_digests_fresh(pool, ordered);
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_GT(reelections, 0u);
}

// ---- digest identity: ELF pools and synthetic corners ---------------------------

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

std::unique_ptr<cloud::LinuxEnvironment> make_linux_env(std::size_t guests) {
  cloud::LinuxCloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::LinuxEnvironment>(cfg);
}

TEST(DigestIdentity, ElfCleanPoolsAndAttackAnalogues) {
  {
    auto env = make_linux_env(5);
    for (const std::string module :
         {"hello", "scsi_mod", "nf_conntrack", "ext3"}) {
      EXPECT_EQ(
          expect_digests_fresh(env->hypervisor(), module, env->guests()), 5u)
          << module;
    }
  }
  // .text byte patch on a peer and on the first VM (re-elected reference).
  for (const std::size_t victim_index : {2u, 0u}) {
    auto env = make_linux_env(6);
    const vmm::DomainId victim = env->guests()[victim_index];
    const Bytes patch = {0xCC};
    env->kernel(victim).address_space().write_virtual(
        section_va(*env, victim, "scsi_mod", ".text") + 3, ByteView(patch));
    EXPECT_EQ(
        expect_digests_fresh(env->hypervisor(), "scsi_mod", env->guests()), 5u)
        << "victim " << victim_index;
  }
  {
    // Redirected fixup pointer (first R_X86_64_64 slot of nf_conntrack).
    auto env = make_linux_env(7);
    const vmm::DomainId victim = env->guests()[4];
    const std::uint32_t va =
        section_va(*env, victim, "nf_conntrack", ".text") + 264;
    Bytes slot(8, 0);
    env->kernel(victim).address_space().read_virtual(va, MutableByteView(slot));
    store_le64(MutableByteView(slot), 0, load_le64(ByteView(slot), 0) + 0x40);
    env->kernel(victim).address_space().write_virtual(va, ByteView(slot));
    EXPECT_EQ(
        expect_digests_fresh(env->hypervisor(), "nf_conntrack", env->guests()),
        6u);
  }
  {
    // .rela.text tamper: a raw item differing from the reference.
    auto env = make_linux_env(5);
    const vmm::DomainId victim = env->guests()[1];
    const Bytes tamper = {0x7F};
    env->kernel(victim).address_space().write_virtual(
        section_va(*env, victim, "ext3", ".rela.text") + 16, ByteView(tamper));
    EXPECT_EQ(expect_digests_fresh(env->hypervisor(), "ext3", env->guests()),
              5u);
  }
}

TEST(DigestIdentity, SameBaseAndRawDivergentSyntheticCopies) {
  mc::test::ContentStore store;
  std::vector<ParsedModule> copies;
  copies.push_back(
      synth_module(store, 1, 0x00010000, text_with_reloc(0x00010000, 0x42)));
  copies.push_back(
      synth_module(store, 2, 0x00010000, text_with_reloc(0x00010000, 0x42)));
  copies.push_back(
      synth_module(store, 3, 0x00230000, text_with_reloc(0x00230000, 0x42)));
  copies.push_back(
      synth_module(store, 4, 0x00570000, text_with_reloc(0x00570000, 0x42)));
  copies.push_back(
      synth_module(store, 5, 0x00890000, text_with_reloc(0x00890000, 0x42)));
  store.edit(copies.back().items[0],
             [](Bytes& b) { b[3] ^= 0x40; });  // raw header differs
  SimClock clock;
  const CanonicalPool pool = CanonicalPool::elect(
      pointers(copies), clock, crypto::HashAlgorithm::kMd5,
      vmi::HostCostModel{});
  EXPECT_EQ(expect_digests_fresh(pool, pointers(copies)), 5u);
  EXPECT_EQ(pool.digests(1), pool.digests(2));
  EXPECT_EQ(pool.digests(1), pool.digests(4));
  EXPECT_NE(pool.digests(1), pool.digests(5));
}

// ---- hash accounting -------------------------------------------------------------

TEST(HashAccounting, CleanPoolRunsOneHashPerItem) {
  constexpr std::size_t t = 15;
  auto env = make_env(t);
  for (const std::string module : {"hal.dll", "http.sys"}) {
    ModChecker probe(env->hypervisor(), fast_config());
    const std::vector<Extraction> exs =
        extract_pool(probe, module, env->guests());
    std::set<std::uint32_t> bases;
    std::size_t rva_items = 0;
    for (const Extraction& ex : exs) {
      ASSERT_TRUE(ex.found && !ex.parse_failed);
      bases.insert(ex.parsed.base);
    }
    ASSERT_EQ(bases.size(), t) << module << ": bases must be distinct";
    const std::size_t items = exs[0].parsed.items.size();
    for (const IntegrityItem& item : exs[0].parsed.items) {
      rva_items += item.rva_sensitive ? 1u : 0u;
    }

    telemetry::MetricRegistry reg;
    ModCheckerConfig cfg = fast_config();
    cfg.metrics = &reg;
    ModChecker checker(env->hypervisor(), std::move(cfg));
    const PoolScanReport report = checker.scan_pool(module, env->guests());
    EXPECT_EQ(report.fastpath_pairs, t * (t - 1) / 2);
    // The reference hashes its raw items, the first differing-base copy
    // establishes each rva-sensitive item's canonical; every other item
    // copy is settled by a byte compare.
    EXPECT_EQ(reg.counter("canonical.hashes").value(), items) << module;
    EXPECT_EQ(reg.counter("canonical.hash_skips").value(),
              (t - 1) * (items - rva_items) + (t - 2) * rva_items)
        << module;
  }
}

TEST(HashAccounting, RawItemDifferingFromTheReferenceIsHashed) {
  // E3: the patched DOS stub is a raw item, so the victim stays eligible
  // and its stub misses the byte compare — one hash beyond the clean
  // pool's one per item.
  auto env = make_env(5);
  const auto hashes_of_scan = [&] {
    telemetry::MetricRegistry reg;
    ModCheckerConfig cfg = fast_config();
    cfg.metrics = &reg;
    ModChecker(env->hypervisor(), std::move(cfg))
        .scan_pool("dummy.sys", env->guests());
    return reg.counter("canonical.hashes").value();
  };
  const std::uint64_t clean = hashes_of_scan();
  attacks::StubPatchAttack{}.apply(*env, env->guests()[1], "dummy.sys");
  EXPECT_EQ(hashes_of_scan(), clean + 1);
}

}  // namespace
