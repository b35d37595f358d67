// Tests for the dirty-frame-aware incremental scanner: verdict equivalence
// with the fresh scanner in every state, cache reuse on quiescent guests,
// and invalidation on every mutation channel (attack, reload, revert).
#include <gtest/gtest.h>

#include <memory>

#include "attacks/byte_patch.hpp"
#include "attacks/guest_writer.hpp"
#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "modchecker/incremental.hpp"
#include "modchecker/modchecker.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace mc;
using namespace mc::core;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

void expect_same_verdicts(const PoolScanReport& a, const PoolScanReport& b) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i].vm, b.verdicts[i].vm);
    EXPECT_EQ(a.verdicts[i].clean, b.verdicts[i].clean);
    EXPECT_EQ(a.verdicts[i].successes, b.verdicts[i].successes);
    EXPECT_EQ(a.verdicts[i].total, b.verdicts[i].total);
  }
}

TEST(Incremental, FirstScanMatchesFreshScanner) {
  auto env = make_env(5);
  IncrementalScanner incremental(env->hypervisor());
  ModChecker fresh(env->hypervisor());
  expect_same_verdicts(incremental.scan("hal.dll", env->guests()),
                       fresh.scan_pool("hal.dll", env->guests()));
  EXPECT_EQ(incremental.stats().full_extractions, 5u);
  EXPECT_EQ(incremental.stats().cache_reuses, 0u);
}

TEST(Incremental, QuiescentRescanReusesCacheAndIsCheaper) {
  auto env = make_env(8);
  IncrementalScanner incremental(env->hypervisor());

  const auto first = incremental.scan("http.sys", env->guests());
  const auto second = incremental.scan("http.sys", env->guests());
  expect_same_verdicts(first, second);

  EXPECT_EQ(incremental.stats().full_extractions, 8u);
  EXPECT_EQ(incremental.stats().cache_reuses, 8u);
  // Searcher cost collapses: no page-wise copy, only list walk + dirty
  // bitmap queries.
  EXPECT_LT(second.cpu_times.searcher, first.cpu_times.searcher / 2);
}

TEST(Incremental, AttackInvalidatesExactlyTheVictim) {
  auto env = make_env(6);
  IncrementalScanner incremental(env->hypervisor());
  incremental.scan("hal.dll", env->guests());

  attacks::InlineHookAttack{}.apply(*env, env->guests()[3], "hal.dll");
  const auto report = incremental.scan("hal.dll", env->guests());

  // Detection identical to a fresh scanner.
  ModChecker fresh(env->hypervisor());
  expect_same_verdicts(report, fresh.scan_pool("hal.dll", env->guests()));
  for (const auto& v : report.verdicts) {
    EXPECT_EQ(v.clean, v.vm != env->guests()[3]);
  }
  // Only the victim was refreshed on the second scan — and only its dirty
  // pages were re-read (the watch hands back the exact page indices), so
  // the attack costs O(changed bytes), not a full re-extraction.
  EXPECT_EQ(incremental.stats().full_extractions, 6u);
  EXPECT_EQ(incremental.stats().invalidations, 1u);
  EXPECT_EQ(incremental.stats().partial_refreshes, 1u);
  EXPECT_GE(incremental.stats().frames_reread, 1u);
  EXPECT_EQ(incremental.stats().cache_reuses, 5u);
}

TEST(Incremental, SingleBytePatchIsNeverMaskedByTheCache) {
  auto env = make_env(4);
  IncrementalScanner incremental(env->hypervisor());
  incremental.scan("ntfs.sys", env->guests());

  attacks::BytePatchAttack(0x1100, 0x01).apply(*env, env->guests()[1],
                                               "ntfs.sys");
  const auto report = incremental.scan("ntfs.sys", env->guests());
  for (const auto& v : report.verdicts) {
    EXPECT_EQ(v.clean, v.vm != env->guests()[1]);
  }
}

TEST(Incremental, ReloadAtNewBaseInvalidates) {
  auto env = make_env(3);
  IncrementalScanner incremental(env->hypervisor());
  incremental.scan("dummy.sys", env->guests());

  // Clean reload (same bytes, new base): cache must invalidate, and the
  // pool must still verify clean afterwards.
  const auto vm = env->guests()[0];
  env->loader(vm).unload("dummy.sys");
  env->loader(vm).load("dummy.sys", env->golden().file("dummy.sys"));

  const auto report = incremental.scan("dummy.sys", env->guests());
  for (const auto& v : report.verdicts) {
    EXPECT_TRUE(v.clean) << "Dom" << v.vm;
  }
  EXPECT_GE(incremental.stats().invalidations, 1u);
}

TEST(Incremental, SnapshotRevertInvalidates) {
  auto env = make_env(4);
  env->snapshot_all();
  IncrementalScanner incremental(env->hypervisor());

  attacks::InlineHookAttack{}.apply(*env, env->guests()[2], "hal.dll");
  auto report = incremental.scan("hal.dll", env->guests());
  ASSERT_FALSE(report.verdicts[2].clean);

  env->revert(env->guests()[2]);
  report = incremental.scan("hal.dll", env->guests());
  EXPECT_TRUE(report.verdicts[2].clean);  // stale cache would say infected
}

TEST(Incremental, UnloadedModuleDropsFromCache) {
  auto env = make_env(3);
  IncrementalScanner incremental(env->hypervisor());
  incremental.scan("dummy.sys", env->guests());

  env->loader(env->guests()[1]).unload("dummy.sys");
  const auto report = incremental.scan("dummy.sys", env->guests());
  EXPECT_EQ(report.verdicts[1].total, 0u);   // not comparable
  EXPECT_FALSE(report.verdicts[1].clean);
  EXPECT_EQ(report.verdicts[0].total, 1u);   // the remaining pair
  EXPECT_TRUE(report.verdicts[0].clean);
}

TEST(Incremental, InfectedReferenceIsReelectedThenRestored) {
  // The persistent canonical pool is keyed on the elected reference.
  // Infecting the first VM (the reference of the clean ticks) re-elects
  // onto a clean copy, so only the victim's t-1 pairs fall back; restoring
  // it re-normalizes the victim alone against the new reference and every
  // pair is fast again.  Verdicts track a fresh scanner on every tick.
  constexpr std::size_t t = 8;
  auto env = make_env(t);
  env->snapshot_all();
  IncrementalScanner incremental(env->hypervisor());
  ModChecker fresh(env->hypervisor());
  const vmm::DomainId victim = env->guests()[0];

  auto report = incremental.scan("hal.dll", env->guests());
  EXPECT_EQ(report.fallback_pairs, 0u);

  attacks::InlineHookAttack{}.apply(*env, victim, "hal.dll");
  report = incremental.scan("hal.dll", env->guests());
  expect_same_verdicts(report, fresh.scan_pool("hal.dll", env->guests()));
  EXPECT_FALSE(report.verdicts[0].clean);
  EXPECT_EQ(report.fallback_pairs, t - 1);
  EXPECT_EQ(report.fastpath_pairs, (t - 1) * (t - 2) / 2);

  env->revert(victim);
  report = incremental.scan("hal.dll", env->guests());
  expect_same_verdicts(report, fresh.scan_pool("hal.dll", env->guests()));
  EXPECT_TRUE(report.verdicts[0].clean);
  EXPECT_EQ(report.fallback_pairs, 0u);
  EXPECT_EQ(report.fastpath_pairs, t * (t - 1) / 2);
}

TEST(Incremental, ReloadAfterUnloadIsNeverServedStale) {
  // A module that disappears and comes back is a new extraction: its cache
  // generation must not restart, or the canonical pool (and the pair
  // cache) would keep serving the digests of the copy that was unloaded.
  auto env = make_env(4);
  IncrementalScanner incremental(env->hypervisor());
  ModChecker fresh(env->hypervisor());
  const vmm::DomainId vm = env->guests()[2];
  incremental.scan("dummy.sys", env->guests());

  env->loader(vm).unload("dummy.sys");
  incremental.scan("dummy.sys", env->guests());

  Bytes tampered = env->golden().file("dummy.sys");
  tampered[0x50] ^= 0xFF;  // inside the DOS stub
  env->loader(vm).load("dummy.sys", ByteView(tampered));
  const auto report = incremental.scan("dummy.sys", env->guests());
  expect_same_verdicts(report, fresh.scan_pool("dummy.sys", env->guests()));
  EXPECT_FALSE(report.verdicts[2].clean);
}

TEST(Incremental, SameValueRewriteRunsNoHash) {
  // Rewriting every byte of a non-reference copy with the value already
  // there dirties all its pages, but the refresh compares each re-read
  // page with the cached copy: no byte changed, so the copy keeps its
  // generation and the tick does no parse and no canonical work at all.
  auto env = make_env(6);
  telemetry::MetricRegistry reg;
  ModCheckerConfig cfg;
  cfg.metrics = &reg;
  IncrementalScanner incremental(env->hypervisor(), std::move(cfg));
  incremental.scan("http.sys", env->guests());
  const telemetry::Counter hashes = reg.counter("canonical.hashes");
  const telemetry::Counter skips = reg.counter("canonical.hash_skips");
  const telemetry::Counter unchanged =
      reg.counter("incremental.unchanged_refreshes");
  const telemetry::Histogram parses = reg.histogram("pipeline.parse.sim_ns");
  const std::uint64_t hashes_before = hashes.value();
  const std::uint64_t skips_before = skips.value();
  const std::uint64_t parses_before = parses.count();
  ASSERT_GT(hashes_before, 0u);

  attacks::GuestMemoryWriter writer(*env, env->guests()[3]);
  std::uint32_t base = 0;
  const Bytes image = writer.read_module_image("http.sys", &base);
  writer.write(base, ByteView(image));
  const auto report = incremental.scan("http.sys", env->guests());

  for (const auto& v : report.verdicts) {
    EXPECT_TRUE(v.clean) << "vm " << v.vm;
  }
  EXPECT_EQ(report.fallback_pairs, 0u);
  EXPECT_EQ(hashes.value(), hashes_before);
  EXPECT_EQ(skips.value(), skips_before);
  EXPECT_EQ(parses.count(), parses_before);
  EXPECT_EQ(unchanged.value(), 1u);
  EXPECT_EQ(incremental.stats().partial_refreshes, 1u);
  EXPECT_EQ(incremental.stats().unchanged_refreshes, 1u);
  EXPECT_GT(incremental.stats().frames_reread, 1u);
}

TEST(Incremental, RepeatedScansStayCheapAcrossManyRounds) {
  auto env = make_env(10);
  IncrementalScanner incremental(env->hypervisor());
  const auto first = incremental.scan("http.sys", env->guests());
  SimNanos steady_total = 0;
  for (int round = 0; round < 5; ++round) {
    steady_total += incremental.scan("http.sys", env->guests()).cpu_times
                        .searcher;
  }
  EXPECT_LT(steady_total / 5, first.cpu_times.searcher / 2);
  EXPECT_EQ(incremental.stats().full_extractions, 10u);
  EXPECT_EQ(incremental.stats().cache_reuses, 50u);
}

}  // namespace
