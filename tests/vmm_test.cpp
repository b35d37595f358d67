// Unit tests for mc_vmm: sparse physical memory, x86 page tables, domains,
// hypervisor lifecycle, snapshots, and the contention model.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/sim_clock.hpp"
#include "vmi/session.hpp"
#include "vmm/address_space.hpp"
#include "vmm/contention.hpp"
#include "vmm/domain.hpp"
#include "vmm/hypervisor.hpp"
#include "vmm/phys_mem.hpp"

namespace {

using namespace mc;
using namespace mc::vmm;

// ---- PhysicalMemory -----------------------------------------------------------
TEST(PhysMem, RoundsSizeUpToFrames) {
  PhysicalMemory mem(kFrameSize + 1);
  EXPECT_EQ(mem.size(), 2u * kFrameSize);
  EXPECT_EQ(mem.frame_count(), 2u);
}

TEST(PhysMem, UntouchedFramesReadZero) {
  PhysicalMemory mem(1 << 20);
  Bytes buf(64, 0xFF);
  mem.read(0x5000, buf);
  EXPECT_EQ(buf, Bytes(64, 0));
  EXPECT_EQ(mem.resident_frames(), 0u);
}

TEST(PhysMem, WriteReadRoundTrip) {
  PhysicalMemory mem(1 << 20);
  const Bytes data = {1, 2, 3, 4, 5};
  mem.write(0x1234, data);
  Bytes out(5, 0);
  mem.read(0x1234, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(mem.resident_frames(), 1u);
}

TEST(PhysMem, CrossFrameAccess) {
  PhysicalMemory mem(1 << 20);
  Bytes data(kFrameSize, 0xAB);
  mem.write(kFrameSize - 100, data);  // spans two frames
  EXPECT_EQ(mem.resident_frames(), 2u);
  Bytes out(kFrameSize, 0);
  mem.read(kFrameSize - 100, out);
  EXPECT_EQ(out, data);
}

TEST(PhysMem, U32Helpers) {
  PhysicalMemory mem(1 << 20);
  mem.write_u32(0x2000, 0xDEADBEEF);
  EXPECT_EQ(mem.read_u32(0x2000), 0xDEADBEEFu);
  EXPECT_EQ(mem.read_u8(0x2000), 0xEF);
}

TEST(PhysMem, OutOfRangeThrows) {
  PhysicalMemory mem(2 * kFrameSize);
  Bytes buf(16, 0);
  EXPECT_THROW(mem.read(2 * kFrameSize - 8, buf), MemoryError);
  EXPECT_THROW(mem.write(2 * kFrameSize, Bytes{1}), MemoryError);
}

TEST(PhysMem, FrameZeroIsReserved) {
  PhysicalMemory mem(1 << 20);
  EXPECT_EQ(mem.alloc_frame(), 1u);  // frame 0 never handed out
}

TEST(PhysMem, ContiguousAllocation) {
  PhysicalMemory mem(1 << 20);
  const std::uint32_t first = mem.alloc_frames(4);
  const std::uint32_t next = mem.alloc_frame();
  EXPECT_EQ(next, first + 4);
}

TEST(PhysMem, ExhaustionThrows) {
  PhysicalMemory mem(4 * kFrameSize);
  mem.alloc_frames(3);  // 1..3 (0 reserved)
  EXPECT_THROW(mem.alloc_frame(), MemoryError);
}

TEST(PhysMem, CloneIsIndependent) {
  PhysicalMemory mem(1 << 20);
  mem.write_u32(0x3000, 111);
  PhysicalMemory copy = mem.clone();
  copy.write_u32(0x3000, 222);
  EXPECT_EQ(mem.read_u32(0x3000), 111u);
  EXPECT_EQ(copy.read_u32(0x3000), 222u);
}

TEST(PhysMem, RestoreFromSnapshot) {
  PhysicalMemory mem(1 << 20);
  mem.write_u32(0x3000, 111);
  const PhysicalMemory snap = mem.clone();
  mem.write_u32(0x3000, 999);
  mem.write_u32(0x9000, 5);
  mem.restore_from(snap);
  EXPECT_EQ(mem.read_u32(0x3000), 111u);
  EXPECT_EQ(mem.read_u32(0x9000), 0u);  // extra frame dropped
}

// ---- AddressSpace ---------------------------------------------------------------
TEST(AddressSpace, MapAndTranslate) {
  PhysicalMemory mem(4 << 20);
  AddressSpace aspace(mem);
  const std::uint64_t pa = std::uint64_t{mem.alloc_frame()} << kFrameShift;
  aspace.map_page(0x80000000, pa, true);

  const auto got = aspace.translate(0x80000123);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, pa + 0x123);
}

TEST(AddressSpace, UnmappedTranslatesToNothing) {
  PhysicalMemory mem(4 << 20);
  AddressSpace aspace(mem);
  EXPECT_FALSE(aspace.translate(0x80000000).has_value());
  aspace.map_region(0x80000000, kFrameSize, true);
  EXPECT_TRUE(aspace.translate(0x80000000).has_value());
  EXPECT_FALSE(aspace.translate(0x80001000).has_value());  // next page
}

TEST(AddressSpace, VirtualReadWriteCrossPage) {
  PhysicalMemory mem(4 << 20);
  AddressSpace aspace(mem);
  aspace.map_region(0x80000000, 2 * kFrameSize, true);

  Bytes data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  aspace.write_virtual(0x80000F80, data);  // spans the page boundary
  Bytes out(300, 0);
  aspace.read_virtual(0x80000F80, out);
  EXPECT_EQ(out, data);
}

TEST(AddressSpace, PhysicalPagesNeedNotBeContiguous) {
  PhysicalMemory mem(4 << 20);
  AddressSpace aspace(mem);
  aspace.map_region(0x80000000, kFrameSize, true);
  mem.alloc_frames(3);  // make a hole
  aspace.map_region(0x80001000, kFrameSize, true);

  const auto pa0 = aspace.translate(0x80000000);
  const auto pa1 = aspace.translate(0x80001000);
  ASSERT_TRUE(pa0 && pa1);
  EXPECT_NE(*pa1, *pa0 + kFrameSize);
  // Virtual contiguity still works.
  Bytes data(kFrameSize + 16, 0x7E);
  aspace.write_virtual(0x80000000, data);
  Bytes out(data.size(), 0);
  aspace.read_virtual(0x80000000, out);
  EXPECT_EQ(out, data);
}

TEST(AddressSpace, UnmappedAccessThrows) {
  PhysicalMemory mem(4 << 20);
  AddressSpace aspace(mem);
  Bytes buf(4, 0);
  EXPECT_THROW(aspace.read_virtual(0x80000000, buf), MemoryError);
  EXPECT_THROW(aspace.write_virtual(0x80000000, buf), MemoryError);
}

TEST(AddressSpace, AlignmentPreconditions) {
  PhysicalMemory mem(4 << 20);
  AddressSpace aspace(mem);
  EXPECT_THROW(aspace.map_page(0x80000001, 0x1000, true), InvalidArgument);
  EXPECT_THROW(aspace.map_page(0x80000000, 0x1001, true), InvalidArgument);
}

TEST(AddressSpace, WrapExistingCr3) {
  PhysicalMemory mem(4 << 20);
  AddressSpace original(mem);
  original.map_region(0x80000000, kFrameSize, true);
  original.write_virtual(0x80000000, Bytes{9, 8, 7});

  AddressSpace view(mem, original.cr3());
  Bytes out(3, 0);
  view.read_virtual(0x80000000, out);
  EXPECT_EQ(out, (Bytes{9, 8, 7}));
}

// ---- Domain / Hypervisor -----------------------------------------------------------
TEST(Hypervisor, DomainLifecycle) {
  Hypervisor hv;
  const DomainId a = hv.create_domain("Dom1", 8 << 20);
  const DomainId b = hv.create_domain("Dom2", 8 << 20);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(hv.domain_count(), 2u);
  EXPECT_EQ(hv.domain(a).name(), "Dom1");
  hv.destroy_domain(a);
  EXPECT_FALSE(hv.has_domain(a));
  EXPECT_THROW(hv.domain(a), NotFoundError);
  EXPECT_THROW(hv.destroy_domain(a), NotFoundError);
}

TEST(Hypervisor, CloneCopiesMemoryAndState) {
  Hypervisor hv;
  const DomainId src = hv.create_domain("src", 8 << 20);
  hv.domain(src).memory().write_u32(0x4000, 42);
  hv.domain(src).set_cr3(0x1000);

  const DomainId dst = hv.clone_domain(src, "dst");
  EXPECT_EQ(hv.domain(dst).memory().read_u32(0x4000), 42u);
  EXPECT_EQ(hv.domain(dst).cr3(), 0x1000u);
  // Independent after clone.
  hv.domain(dst).memory().write_u32(0x4000, 7);
  EXPECT_EQ(hv.domain(src).memory().read_u32(0x4000), 42u);
}

TEST(Hypervisor, SnapshotRestore) {
  Hypervisor hv;
  const DomainId id = hv.create_domain("d", 8 << 20);
  hv.domain(id).memory().write_u32(0x4000, 1);
  const DomainSnapshot snap = hv.snapshot(id);
  hv.domain(id).memory().write_u32(0x4000, 2);
  hv.restore(snap);
  EXPECT_EQ(hv.domain(id).memory().read_u32(0x4000), 1u);
}

TEST(Hypervisor, BusyLoadAggregation) {
  Hypervisor hv;
  const DomainId a = hv.create_domain("a", 8 << 20);
  const DomainId b = hv.create_domain("b", 8 << 20);
  hv.set_load_level(a, 1.0);
  hv.set_load_level(b, 0.5);
  EXPECT_DOUBLE_EQ(hv.total_busy_load(), 1.5);
  EXPECT_GT(hv.dom0_slowdown(), 1.0);
}

TEST(Domain, LoadLevelValidation) {
  Hypervisor hv;
  const DomainId id = hv.create_domain("x", 8 << 20);
  EXPECT_THROW(hv.set_load_level(id, -0.1), InvalidArgument);
  EXPECT_THROW(hv.set_load_level(id, 1.5), InvalidArgument);
  EXPECT_DOUBLE_EQ(hv.total_busy_load(), 0.0);
  hv.set_load_level(id, 0.7);
  EXPECT_DOUBLE_EQ(hv.domain(id).load_level(), 0.7);
}

/// The slowdown a walk over every domain's load gives at this instant.
double walked_slowdown(const Hypervisor& hv) {
  double total = 0.0;
  for (const DomainId id : hv.domain_ids()) {
    total += hv.domain(id).load_level();
  }
  return hv.contention().dom0_slowdown(total);
}

TEST(Hypervisor, SlowdownFollowsEveryLoadChangeAtOnce) {
  Hypervisor hv;
  const DomainId a = hv.create_domain("a", 8 << 20);
  const DomainId b = hv.create_domain("b", 8 << 20);
  EXPECT_EQ(hv.dom0_slowdown(), 1.0);

  hv.set_load_level(a, 1.0);
  EXPECT_EQ(hv.total_busy_load(), 1.0);
  EXPECT_EQ(hv.dom0_slowdown(), walked_slowdown(hv));
  const double one_busy = hv.dom0_slowdown();
  EXPECT_GT(one_busy, 1.0);

  // Restore brings the snapshot's load back with its memory.
  const DomainSnapshot idle_b = hv.snapshot(b);
  hv.set_load_level(b, 0.5);
  EXPECT_EQ(hv.total_busy_load(), 1.5);
  hv.restore(idle_b);
  EXPECT_EQ(hv.total_busy_load(), 1.0);
  EXPECT_EQ(hv.dom0_slowdown(), one_busy);

  // A clone copies the source's load.
  const DomainId c = hv.clone_domain(a, "c");
  EXPECT_EQ(hv.total_busy_load(), 2.0);
  EXPECT_EQ(hv.dom0_slowdown(), walked_slowdown(hv));

  // A destroyed domain's load leaves the total.
  hv.destroy_domain(a);
  EXPECT_EQ(hv.total_busy_load(), 1.0);
  EXPECT_EQ(hv.dom0_slowdown(), one_busy);
  hv.destroy_domain(c);
  EXPECT_EQ(hv.total_busy_load(), 0.0);
  EXPECT_EQ(hv.dom0_slowdown(), 1.0);

  // A new contention model applies to the current total.
  hv.set_load_level(b, 1.0);
  ContentionParams steep;
  steep.alpha = 0.5;
  hv.set_contention(ContentionModel(steep));
  EXPECT_EQ(hv.dom0_slowdown(), 1.5);
}

TEST(Hypervisor, ConcurrentChargesWhileLoadChanges) {
  // VMI charges on worker threads read the slowdown while another thread
  // flips a load: every charge sees one of the two published values.
  Hypervisor hv;
  const DomainId a = hv.create_domain("a", 8 << 20);
  const DomainId b = hv.create_domain("b", 8 << 20);
  hv.set_load_level(b, 1.0);
  const double low = hv.dom0_slowdown();
  hv.set_load_level(a, 1.0);
  const double high = hv.dom0_slowdown();
  ASSERT_LT(low, high);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> chargers;
  for (int t = 0; t < 3; ++t) {
    chargers.emplace_back([&] {
      SimClock clock;
      vmi::VmiSession session(hv, b, clock);
      while (!stop.load()) {
        const SimNanos before = clock.now();
        (void)session.watch_dirty(WriteWatch::kNoWatch);  // one charge
        const double slowdown = clock.slowdown();
        bad += (slowdown != low && slowdown != high) ? 1 : 0;
        bad += clock.now() <= before ? 1 : 0;
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    hv.set_load_level(a, i % 2 == 0 ? 0.0 : 1.0);
  }
  stop = true;
  for (std::thread& t : chargers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(hv.dom0_slowdown(), high);
}

TEST(HardwareConfig, VirtualCores) {
  HardwareConfig hw;
  EXPECT_EQ(hw.virtual_cores(), 8u);  // paper testbed: quad core + HT
  hw.hyperthreading = false;
  EXPECT_EQ(hw.virtual_cores(), 4u);
}

// ---- ContentionModel ------------------------------------------------------------------
TEST(Contention, IdleMeansNoSlowdown) {
  ContentionModel model;
  EXPECT_DOUBLE_EQ(model.dom0_slowdown(0), 1.0);
}

TEST(Contention, MonotonicInBusyLoad) {
  ContentionModel model;
  double prev = 0;
  for (int b = 0; b <= 20; ++b) {
    const double f = model.dom0_slowdown(b);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(Contention, LinearBelowCoreCount) {
  ContentionParams p;
  ContentionModel model(p);
  const double step_low =
      model.dom0_slowdown(4) - model.dom0_slowdown(3);
  const double step_low2 =
      model.dom0_slowdown(7) - model.dom0_slowdown(6);
  EXPECT_NEAR(step_low, step_low2, 1e-12);
}

TEST(Contention, KneeAtCoreCount) {
  ContentionParams p;
  ContentionModel model(p);
  const double step_before =
      model.dom0_slowdown(8) - model.dom0_slowdown(7);
  const double step_after =
      model.dom0_slowdown(12) - model.dom0_slowdown(11);
  EXPECT_GT(step_after, 4 * step_before);  // superlinear past the knee
}

// Parameterized: the knee must track the configured core count.
class ContentionKnee : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ContentionKnee, KneeFollowsCoreCount) {
  ContentionParams p;
  p.virtual_cores = GetParam();
  ContentionModel model(p);
  const double v = p.virtual_cores;
  // Marginal slowdown just below vs just above the knee.
  const double below = model.dom0_slowdown(v) - model.dom0_slowdown(v - 1);
  const double above =
      model.dom0_slowdown(v + 2) - model.dom0_slowdown(v + 1);
  EXPECT_GT(above, below);
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, ContentionKnee,
                         ::testing::Values(2, 4, 8, 16));

TEST(Contention, NegativeLoadClamped) {
  ContentionModel model;
  EXPECT_DOUBLE_EQ(model.dom0_slowdown(-3.0), 1.0);
}

}  // namespace
