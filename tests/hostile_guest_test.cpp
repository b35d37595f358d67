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
#include "cloud/linux.hpp"
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

// ---- the cached loader lookup answers like a fresh one ----------------------

/// A warm cached scan and a fresh scan of `module` after `hostile` ran on
/// the second VM's loader list: the same quarantine, faults and verdicts.
/// Returns the fresh scan.
template <typename Env, typename Hostile>
PoolScanReport expect_cached_equals_fresh(Env& env, const std::string& module,
                                          Hostile&& hostile) {
  IncrementalScanner incremental(env.hypervisor());
  (void)incremental.scan(module, env.guests());  // warm the cache
  hostile(env.kernel(env.guests()[1]));
  const PoolScanReport fresh =
      ModChecker(env.hypervisor()).scan_pool(module, env.guests());
  const PoolScanReport cached = incremental.scan(module, env.guests());
  EXPECT_EQ(cached.quarantined, fresh.quarantined);
  EXPECT_EQ(cached.faults.size(), fresh.faults.size());
  for (std::size_t k = 0; k < std::min(cached.faults.size(),
                                       fresh.faults.size()); ++k) {
    EXPECT_EQ(cached.faults[k].code, fresh.faults[k].code);
    EXPECT_EQ(cached.faults[k].domain, fresh.faults[k].domain);
  }
  EXPECT_EQ(cached.verdicts.size(), fresh.verdicts.size());
  for (std::size_t k = 0;
       k < std::min(cached.verdicts.size(), fresh.verdicts.size()); ++k) {
    EXPECT_EQ(cached.verdicts[k].clean, fresh.verdicts[k].clean) << k;
    EXPECT_EQ(cached.verdicts[k].successes, fresh.verdicts[k].successes)
        << k;
    EXPECT_EQ(cached.verdicts[k].quarantined, fresh.verdicts[k].quarantined)
        << k;
  }
  return fresh;
}

void write_u32(guestos::GuestKernel& kernel, std::uint32_t va,
               std::uint32_t value) {
  Bytes b(4, 0);
  store_le32(b, 0, value);
  kernel.address_space().write_virtual(va, ByteView(b));
}

std::uint32_t flink_va(const guestos::GuestKernel& kernel,
                       const guestos::LdrEntry& entry) {
  return entry.entry_va + kernel.profile().off_in_load_order_links +
         guestos::kOffListFlink;
}

/// Entries 3 and 4 loop (4's FLINK back to 3): a cycle after entry 1.
void cycle_after_entry_one(guestos::GuestKernel& kernel) {
  const std::vector<guestos::LdrEntry> entries = kernel.read_module_list();
  ASSERT_GT(entries.size(), 4u);
  write_u32(kernel, flink_va(kernel, entries[4]), entries[3].entry_va);
}

/// Entry 3's FLINK points at an unmapped address: the next entry's name
/// read faults.
void name_fault_after_entry_two(guestos::GuestKernel& kernel) {
  const std::vector<guestos::LdrEntry> entries = kernel.read_module_list();
  ASSERT_GT(entries.size(), 3u);
  ASSERT_FALSE(kernel.address_space().translate(kBeyondRam));
  write_u32(kernel, flink_va(kernel, entries[3]), kBeyondRam);
}

/// Inserts a fake entry before the last one whose name ends a page and
/// whose facts lie on the unmapped page after it: reading its facts
/// faults, reading its name does not.  Needs the facts after the name
/// (the Linux layout).
void facts_fault_before_last_entry(guestos::GuestKernel& kernel) {
  const guestos::GuestProfile& profile = kernel.profile();
  ASSERT_TRUE(profile.inline_names);
  ASSERT_GT(profile.off_dll_base, profile.off_base_dll_name);
  const std::vector<guestos::LdrEntry> entries = kernel.read_module_list();
  ASSERT_GT(entries.size(), 2u);
  // The last mapped page of the list's first module image.
  std::uint32_t page = entries[0].dll_base & ~(vmm::kFrameSize - 1);
  while (kernel.address_space().translate(page + vmm::kFrameSize)) {
    page += vmm::kFrameSize;
  }
  const std::uint32_t fake =
      page + vmm::kFrameSize - profile.off_dll_base;
  ASSERT_TRUE(kernel.address_space().translate(fake));
  const guestos::LdrEntry& last = entries.back();
  const guestos::LdrEntry& before = entries[entries.size() - 2];
  write_u32(kernel, fake + profile.off_in_load_order_links +
                        guestos::kOffListFlink,
            last.entry_va);
  Bytes name(profile.inline_name_bytes, 0);
  const std::string fake_name = "fake_mod";
  std::copy(fake_name.begin(), fake_name.end(), name.begin());
  kernel.address_space().write_virtual(fake + profile.off_base_dll_name,
                                       ByteView(name));
  write_u32(kernel, flink_va(kernel, before), fake);
}

std::unique_ptr<cloud::LinuxEnvironment> make_linux_pool() {
  cloud::LinuxCloudConfig cfg;
  cfg.guest_count = 5;
  return std::make_unique<cloud::LinuxEnvironment>(cfg);
}

TEST(CachedLoaderLookup, CycleAfterTheModulePe) {
  auto env = make_pool("hal.dll");
  const PoolScanReport fresh =
      expect_cached_equals_fresh(*env, "hal.dll", cycle_after_entry_one);
  EXPECT_TRUE(fresh.quarantined.empty());
}

TEST(CachedLoaderLookup, CycleAfterTheModuleElf) {
  auto env = make_linux_pool();
  const std::string module = env->config().load_order[1];
  const PoolScanReport fresh =
      expect_cached_equals_fresh(*env, module, cycle_after_entry_one);
  EXPECT_TRUE(fresh.quarantined.empty());
}

TEST(CachedLoaderLookup, NameFaultAfterTheModulePe) {
  auto env = make_pool("hal.dll");
  const PoolScanReport fresh =
      expect_cached_equals_fresh(*env, "hal.dll", name_fault_after_entry_two);
  EXPECT_TRUE(fresh.quarantined.empty());
  // A module past the fault: both quarantine the VM.
  auto env2 = make_pool("hal.dll");
  const PoolScanReport past = expect_cached_equals_fresh(
      *env2, env2->config().load_order.back(), name_fault_after_entry_two);
  EXPECT_EQ(past.quarantined,
            std::vector<vmm::DomainId>{env2->guests()[1]});
}

TEST(CachedLoaderLookup, NameFaultAfterTheModuleElf) {
  auto env = make_linux_pool();
  const std::string module = env->config().load_order[1];
  const PoolScanReport fresh =
      expect_cached_equals_fresh(*env, module, name_fault_after_entry_two);
  EXPECT_TRUE(fresh.quarantined.empty());
}

TEST(CachedLoaderLookup, FactsFaultOnAnEarlierEntryElf) {
  auto env = make_linux_pool();
  const std::string module = env->config().load_order.back();
  const PoolScanReport fresh =
      expect_cached_equals_fresh(*env, module, facts_fault_before_last_entry);
  EXPECT_TRUE(fresh.quarantined.empty());
}

TEST(CachedLoaderLookup, FactsFaultOnAnEarlierEntryPe) {
  // A Windows entry keeps its facts between its FLINK and its name
  // descriptor, so no page layout faults the facts alone; the lookup a
  // walk answers is checked on a recorded walk instead.
  LoaderWalk walk;
  LoaderWalk::Entry broken;
  broken.info.name = "ntoskrnl.exe";
  FaultRecord fault;
  fault.code = FaultCode::kReadFault;
  broken.facts_fault = fault;
  LoaderWalk::Entry hal;
  hal.info.name = "hal.dll";
  hal.info.base = 0x80100000u;
  walk.entries = {broken, hal};
  const auto found = walk.find("HAL.DLL");
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(found.value());
  EXPECT_EQ(found.value()->base, 0x80100000u);
  const auto faulted = walk.find("ntoskrnl.exe");
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.fault().code, FaultCode::kReadFault);
  EXPECT_FALSE(walk.clean());
  walk.end_fault = fault;
  const auto absent = walk.find("ndis.sys");
  ASSERT_FALSE(absent.ok());
  EXPECT_EQ(walk.find("hal.dll").value()->base, 0x80100000u);
}

}  // namespace
