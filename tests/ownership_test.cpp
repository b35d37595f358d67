// Ownership of module content under the one content type.
//
// Every image and item is a view.  The scan cache's CachedCopy holds the
// one owned copy of each cached module; its parsed items and a canonical
// pool that elected it as reference borrow that copy's buffer (DESIGN
// §11.1).  These cases move the elected reference under a warm cache (a
// reload at another base, an in-place partial refresh and its undo, a
// snapshot restore) and check after every scan that the cached verdicts
// equal a fresh scan's and the oracle's (oracle.hpp), that every segment
// of every cached item lies inside its own copy's buffer, and that a
// caller keeping an extracted image across restore_from materializes it
// first.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "fallible_test_util.hpp"
#include "modchecker/incremental.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/searcher.hpp"
#include "oracle.hpp"
#include "vmi/session.hpp"

namespace {

using namespace mc;
using namespace mc::test;
using vmm::DomainId;

/// A pipeline and a scan cache over one hypervisor, scanning one module.
struct CachedScanner {
  CachedScanner(const vmm::Hypervisor& hv, std::string module_name)
      : context(hv, core::ModCheckerConfig{}),
        pipeline(context),
        cache(context),
        module(std::move(module_name)) {}

  core::PoolScanReport scan(const std::vector<DomainId>& pool) {
    return pipeline.pool_scan(module, pool, &cache);
  }
  core::ScanCache::Module& entry() { return cache.module(module); }
  DomainId reference() { return entry().canon.ref_vm; }

  core::CheckContext context;
  core::CheckPipeline pipeline;
  core::ScanCache cache;
  std::string module;
};

/// The cached scan's verdicts equal a fresh scan's and the oracle's.
void expect_agree(const vmm::Hypervisor& hv, const std::string& module,
                  const std::vector<DomainId>& pool,
                  const core::PoolScanReport& cached, const char* what) {
  core::ModChecker fresh(hv);
  const core::PoolScanReport want_fresh = fresh.scan_pool(module, pool);
  const std::vector<OracleVerdict> want = oracle_scan(hv, module, pool);
  ASSERT_EQ(cached.verdicts.size(), pool.size()) << what;
  ASSERT_EQ(want_fresh.verdicts.size(), pool.size()) << what;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const core::PoolVmVerdict& v = cached.verdicts[i];
    EXPECT_EQ(v.successes, want[i].successes) << what << " vm #" << i;
    EXPECT_EQ(v.total, want[i].total) << what << " vm #" << i;
    EXPECT_EQ(v.clean, want[i].clean) << what << " vm #" << i;
    EXPECT_EQ(v.successes, want_fresh.verdicts[i].successes)
        << what << " vm #" << i;
    EXPECT_EQ(v.clean, want_fresh.verdicts[i].clean) << what << " vm #" << i;
  }
}

/// Every segment of every cached item lies inside its own copy's buffer,
/// and the copy's image is one segment over that buffer: a cached module
/// is held once.
void expect_held_once(core::ScanCache::Module& entry, const char* what) {
  std::size_t items = 0;
  for (const auto& [vm, copy] : entry.copies) {
    if (!copy.found) {
      continue;
    }
    const std::uint8_t* lo = copy.buffer.data();
    const std::uint8_t* hi = lo + copy.buffer.size();
    ASSERT_EQ(copy.image.view.segments().size(), 1u) << what << " vm " << vm;
    EXPECT_EQ(copy.image.view.segments()[0].data(), lo) << what;
    EXPECT_EQ(copy.image.size(), copy.buffer.size()) << what;
    for (const core::IntegrityItem& item : copy.parsed.items) {
      for (const ByteView& s : item.view.segments()) {
        EXPECT_TRUE(s.data() >= lo && s.data() + s.size() <= hi)
            << what << " vm " << vm << " item " << item.name;
        ++items;
      }
    }
  }
  EXPECT_GT(items, 0u) << what;
  if (entry.canon.pool) {
    // The pool's borrowed reference is the reference copy's parse.
    EXPECT_EQ(entry.canon.pool->reference_domain(), entry.canon.ref_vm);
    EXPECT_TRUE(entry.copies.at(entry.canon.ref_vm).found) << what;
  }
}

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

TEST(Ownership, ReferenceReloadedAtAnotherBaseIsReextracted) {
  auto env = make_env(6);
  const std::string module = "hal.dll";
  const std::vector<DomainId> pool = env->guests();
  attacks::InlineHookAttack{}.apply(*env, pool[4], module);
  CachedScanner scanner(env->hypervisor(), module);
  expect_agree(env->hypervisor(), module, pool, scanner.scan(pool), "warm");
  expect_held_once(scanner.entry(), "warm");

  const DomainId ref = scanner.reference();
  const std::uint32_t old_base = env->loader(ref).find(module)->base;
  const std::uint64_t full_before = scanner.cache.stats().full_extractions;
  env->loader(ref).unload(module);
  const guestos::LoadedModule& again =
      env->loader(ref).load(module, ByteView(env->golden().file(module)));
  ASSERT_NE(again.base, old_base);

  const core::PoolScanReport report = scanner.scan(pool);
  EXPECT_EQ(scanner.cache.stats().full_extractions, full_before + 1);
  EXPECT_EQ(scanner.entry().copies.at(ref).base, again.base);
  expect_agree(env->hypervisor(), module, pool, report, "reloaded");
  expect_held_once(scanner.entry(), "reloaded");
  // A further scan reuses the re-extracted copy without touching it.
  expect_agree(env->hypervisor(), module, pool, scanner.scan(pool), "reuse");
  expect_held_once(scanner.entry(), "reuse");
}

TEST(Ownership, ReferencePatchedInPlaceThenRestored) {
  auto env = make_env(5);
  env->snapshot_all();
  const std::string module = "http.sys";
  const std::vector<DomainId> pool = env->guests();
  CachedScanner scanner(env->hypervisor(), module);
  expect_agree(env->hypervisor(), module, pool, scanner.scan(pool), "warm");
  const DomainId ref = scanner.reference();
  const core::CachedCopy& copy = scanner.entry().copies.at(ref);
  const std::uint8_t* buffer = copy.buffer.data();
  const Bytes clean = copy.buffer;

  // An inline hook on the reference: a partial refresh patches the copy's
  // buffer in place, and the pool re-elects before it reads.
  attacks::InlineHookAttack{}.apply(*env, ref, module);
  const std::uint64_t full_before = scanner.cache.stats().full_extractions;
  const std::uint64_t partial_before = scanner.cache.stats().partial_refreshes;
  const core::PoolScanReport hooked = scanner.scan(pool);
  EXPECT_EQ(scanner.cache.stats().full_extractions, full_before);
  EXPECT_EQ(scanner.cache.stats().partial_refreshes, partial_before + 1);
  EXPECT_EQ(copy.buffer.data(), buffer) << "patched in place";
  EXPECT_NE(copy.buffer, clean);
  expect_agree(env->hypervisor(), module, pool, hooked, "hooked");
  expect_held_once(scanner.entry(), "hooked");
  const auto ref_at = static_cast<std::size_t>(
      std::find(pool.begin(), pool.end(), ref) - pool.begin());
  EXPECT_FALSE(hooked.verdicts[ref_at].clean);

  // Undo the hook by writing the clean image back through the guest: a
  // second partial refresh restores the buffer's bytes in place.
  env->kernel(ref).address_space().write_virtual(copy.base, ByteView(clean));
  const core::PoolScanReport undone = scanner.scan(pool);
  EXPECT_EQ(scanner.cache.stats().full_extractions, full_before);
  EXPECT_EQ(copy.buffer.data(), buffer);
  EXPECT_EQ(copy.buffer, clean);
  expect_agree(env->hypervisor(), module, pool, undone, "undone");
  expect_held_once(scanner.entry(), "undone");
  for (const core::PoolVmVerdict& v : undone.verdicts) {
    EXPECT_TRUE(v.clean);
  }

  // Hook again and revert through the snapshot: restore_from replaces the
  // frames, so the copy is re-extracted and re-parsed before anyone reads.
  attacks::InlineHookAttack{}.apply(*env, ref, module);
  expect_agree(env->hypervisor(), module, pool, scanner.scan(pool),
               "hooked again");
  env->revert(ref);
  const core::PoolScanReport reverted = scanner.scan(pool);
  EXPECT_EQ(scanner.entry().copies.at(ref).buffer, clean);
  expect_agree(env->hypervisor(), module, pool, reverted, "reverted");
  expect_held_once(scanner.entry(), "reverted");
}

TEST(Ownership, CachedElfItemsLieInsideTheirCopysBuffer) {
  cloud::LinuxCloudConfig cfg;
  cfg.guest_count = 5;
  cloud::LinuxEnvironment env(cfg);
  const std::vector<DomainId> pool = env.guests();
  for (const std::string module : {"scsi_mod", "ext3"}) {
    CachedScanner scanner(env.hypervisor(), module);
    expect_agree(env.hypervisor(), module, pool, scanner.scan(pool),
                 module.c_str());
    expect_held_once(scanner.entry(), module.c_str());
  }
}

TEST(Ownership, ExtractedImageKeptAcrossRestoreIsMaterializedFirst) {
  auto env = make_env(5);
  env->snapshot_all();
  const std::string module = "ntfs.sys";
  const std::vector<DomainId> pool = env->guests();
  const DomainId victim = pool[2];

  // The borrowed image names the victim's current frames; restore_from
  // replaces them, so a caller that keeps the image materializes it.
  Bytes kept;
  std::uint32_t base = 0;
  {
    SimClock clock;
    vmi::VmiSession session(env->hypervisor(), victim, clock);
    const auto image =
        must(core::ModuleSearcher(session).try_extract_module(module));
    ASSERT_TRUE(image.has_value());
    kept = image->view.materialize();
    base = image->base;
  }
  attacks::InlineHookAttack{}.apply(*env, victim, module);
  env->revert(victim);

  // The kept copy still parses, and equals the restored guest's image.
  SimClock clock;
  const core::ParsedModule parsed = core::ModuleParser().parse(
      core::ModuleImage{victim, module, base, ByteView(kept)}, clock);
  EXPECT_GT(parsed.items.size(), 3u);
  vmi::VmiSession session(env->hypervisor(), victim, clock);
  const auto restored =
      must(core::ModuleSearcher(session).try_extract_module(module));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->view.materialize(), kept);

  CachedScanner scanner(env->hypervisor(), module);
  const core::PoolScanReport report = scanner.scan(pool);
  expect_agree(env->hypervisor(), module, pool, report, "restored");
  for (const core::PoolVmVerdict& v : report.verdicts) {
    EXPECT_TRUE(v.clean);
  }
}

}  // namespace
