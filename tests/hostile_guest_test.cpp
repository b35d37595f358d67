// Hostile guest state (ctest label: faultinj) — guest memory is attacker
// input, and no value a guest writes may unwind a sweep.  Each scenario
// rewrites one guest's kernel structures, then checks every scan path
// (fresh pool scan, cached scan, list comparison, fleet drain):
//
//   * the call returns, with the hostile guest quarantined or unavailable
//     and the fault recorded by its code;
//   * every other VM's verdict equals a scan of the pool without it.
//
// Known answers: a loader list whose FLINKs loop is one non-retryable
// `loader-list-cycle` fault; a page-table entry pointing past guest RAM is
// a `read-fault` on each of the three acquire attempts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "attacks/guest_writer.hpp"
#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "guestos/winlike.hpp"
#include "modchecker/incremental.hpp"
#include "modchecker/modchecker.hpp"
#include "service/coordinator.hpp"
#include "vmm/address_space.hpp"

namespace {

using namespace mc;
using namespace mc::core;

/// Past the 4th loader-list entry (default load order index 4), so a walk
/// that loops over entries 2-4 never reaches it.
constexpr const char* kModule = "http.sys";

/// A frame-aligned guest-physical address beyond every guest's RAM.
constexpr std::uint32_t kBeyondRam = 0xFFFFF000u;

/// A 5-VM pool with `module` inline-hooked on Dom2, so the verdicts the
/// hostile guest must not disturb include a conviction.
std::unique_ptr<cloud::CloudEnvironment> make_pool(const std::string& module) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 5;
  auto env = std::make_unique<cloud::CloudEnvironment>(cfg);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[1], module);
  return env;
}

std::vector<vmm::DomainId> without(std::vector<vmm::DomainId> pool,
                                   vmm::DomainId vm) {
  pool.erase(std::remove(pool.begin(), pool.end(), vm), pool.end());
  return pool;
}

/// Points the FLINK of `vm`'s 4th loader-list entry back at its 2nd.
void link_loader_list_into_cycle(cloud::CloudEnvironment& env,
                                 vmm::DomainId vm) {
  const guestos::GuestKernel& kernel = env.kernel(vm);
  const std::vector<guestos::LdrEntry> entries = kernel.read_module_list();
  ASSERT_GT(entries.size(), 4u);
  Bytes flink(4, 0);
  store_le32(flink, 0, entries[1].entry_va);
  attacks::GuestMemoryWriter(env, vm).write(
      entries[3].entry_va + kernel.profile().off_in_load_order_links +
          guestos::kOffListFlink,
      flink);
}

/// Maps page 1 of `vm`'s hal.dll to a frame beyond guest RAM.
void map_hal_page_beyond_ram(cloud::CloudEnvironment& env, vmm::DomainId vm) {
  const auto* hal = env.loader(vm).find("hal.dll");
  ASSERT_NE(hal, nullptr);
  env.kernel(vm).address_space().map_page(hal->base + vmm::kFrameSize,
                                          kBeyondRam, true);
}

/// Points the page-directory entry that maps `vm`'s hal.dll at a page
/// table beyond guest RAM.
void point_hal_pde_beyond_ram(cloud::CloudEnvironment& env, vmm::DomainId vm) {
  const auto* hal = env.loader(vm).find("hal.dll");
  ASSERT_NE(hal, nullptr);
  vmm::Domain& domain = env.hypervisor().domain(vm);
  domain.memory().write_u32(domain.cr3() + 4ull * (hal->base >> 22),
                            kBeyondRam | vmm::kPtePresent | vmm::kPteWritable);
}

/// `scan` quarantined exactly `hostile`, with `attempts` faults of `code`,
/// and every other verdict equals `expected` (a scan without `hostile`).
void expect_isolated(const PoolScanReport& scan, vmm::DomainId hostile,
                     FaultCode code, std::uint32_t attempts,
                     const PoolScanReport& expected) {
  EXPECT_EQ(scan.quarantined, std::vector<vmm::DomainId>{hostile});
  ASSERT_EQ(scan.faults.size(), attempts);
  for (std::uint32_t a = 0; a < attempts; ++a) {
    EXPECT_EQ(scan.faults[a].code, code) << format_fault(scan.faults[a]);
    EXPECT_EQ(scan.faults[a].domain, hostile);
    EXPECT_EQ(scan.faults[a].attempt, a + 1);
  }
  std::size_t k = 0;
  for (const PoolVmVerdict& got : scan.verdicts) {
    if (got.vm == hostile) {
      EXPECT_TRUE(got.quarantined);
      continue;
    }
    ASSERT_LT(k, expected.verdicts.size());
    const PoolVmVerdict& want = expected.verdicts[k++];
    EXPECT_EQ(got.vm, want.vm);
    EXPECT_EQ(got.clean, want.clean) << "Dom" << got.vm;
    EXPECT_EQ(got.successes, want.successes) << "Dom" << got.vm;
    EXPECT_EQ(got.total, want.total) << "Dom" << got.vm;
    EXPECT_FALSE(got.quarantined) << "Dom" << got.vm;
  }
  EXPECT_EQ(k, expected.verdicts.size());
}

// ---- loader-list cycle ------------------------------------------------------

class LoaderListCycle : public ::testing::Test {
 protected:
  LoaderListCycle()
      : env_(make_pool(kModule)),
        looped_(env_->guests()[2]),
        others_(without(env_->guests(), looped_)) {}

  std::unique_ptr<cloud::CloudEnvironment> env_;
  vmm::DomainId looped_;
  std::vector<vmm::DomainId> others_;
};

TEST_F(LoaderListCycle, FreshScanQuarantinesTheLoopedVm) {
  ModChecker checker(env_->hypervisor());
  const PoolScanReport expected = checker.scan_pool(kModule, others_);
  link_loader_list_into_cycle(*env_, looped_);
  expect_isolated(checker.scan_pool(kModule, env_->guests()), looped_,
                  FaultCode::kLoaderListCycle, 1, expected);
}

TEST_F(LoaderListCycle, CachedScanQuarantinesTheLoopedVm) {
  IncrementalScanner incremental(env_->hypervisor());
  (void)incremental.scan(kModule, env_->guests());  // warm the cache
  const PoolScanReport expected =
      ModChecker(env_->hypervisor()).scan_pool(kModule, others_);
  link_loader_list_into_cycle(*env_, looped_);
  expect_isolated(incremental.scan(kModule, env_->guests()), looped_,
                  FaultCode::kLoaderListCycle, 1, expected);
}

TEST_F(LoaderListCycle, ListComparisonMarksTheLoopedVmUnavailable) {
  ModChecker checker(env_->hypervisor());
  const ListComparisonReport expected = checker.compare_module_lists(others_);
  link_loader_list_into_cycle(*env_, looped_);
  const ListComparisonReport lists =
      checker.compare_module_lists(env_->guests());
  EXPECT_EQ(lists.unavailable, std::vector<vmm::DomainId>{looped_});
  ASSERT_EQ(lists.faults.size(), 1u);
  EXPECT_EQ(lists.faults[0].code, FaultCode::kLoaderListCycle);
  EXPECT_EQ(lists.faults[0].domain, looped_);
  EXPECT_EQ(lists.modules_seen, expected.modules_seen);
  EXPECT_EQ(lists.discrepancies.size(), expected.discrepancies.size());
}

TEST_F(LoaderListCycle, FleetDrainReturnsWithTheLoopedVmQuarantined) {
  const PoolScanReport expected =
      ModChecker(env_->hypervisor()).scan_pool(kModule, others_);
  link_loader_list_into_cycle(*env_, looped_);

  service::ShardCoordinator fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env_->hypervisor(), env_->guests());
  auto ring = std::make_shared<service::RingSink>();
  fleet.add_sink(ring);
  service::SweepSpec spec;
  spec.name = "looped-pool";
  spec.pool_index = pool;
  spec.modules = {kModule};
  fleet.start();
  ASSERT_NE(fleet.submit(spec), 0u);
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].quarantined, std::vector<vmm::DomainId>{looped_});
  ASSERT_EQ(reports[0].scans.size(), 1u);
  expect_isolated(reports[0].scans[0], looped_, FaultCode::kLoaderListCycle,
                  1, expected);
}

// ---- page tables pointing beyond guest RAM ----------------------------------

class BeyondRam : public ::testing::Test {
 protected:
  BeyondRam()
      : env_(make_pool("hal.dll")),
        victim_(env_->guests()[3]),
        others_(without(env_->guests(), victim_)) {}

  /// Rewrites the victim's page tables with `remap`, then checks a fresh
  /// and a warm cached scan of hal.dll: three read faults, quarantine.
  void check(void (*remap)(cloud::CloudEnvironment&, vmm::DomainId)) {
    ModChecker fresh(env_->hypervisor());
    IncrementalScanner incremental(env_->hypervisor());
    (void)incremental.scan("hal.dll", env_->guests());  // warm the cache
    const PoolScanReport expected = fresh.scan_pool("hal.dll", others_);
    remap(*env_, victim_);
    expect_isolated(fresh.scan_pool("hal.dll", env_->guests()), victim_,
                    FaultCode::kReadFault, 3, expected);
    expect_isolated(incremental.scan("hal.dll", env_->guests()), victim_,
                    FaultCode::kReadFault, 3, expected);
  }

  std::unique_ptr<cloud::CloudEnvironment> env_;
  vmm::DomainId victim_;
  std::vector<vmm::DomainId> others_;
};

TEST_F(BeyondRam, PageFrameIsAReadFault) { check(map_hal_page_beyond_ram); }

TEST_F(BeyondRam, PageTableFrameIsAReadFault) {
  check(point_hal_pde_beyond_ram);
}

}  // namespace
