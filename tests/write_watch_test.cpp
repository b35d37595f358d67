// WriteWatch semantics: registration / dirty / drain, edge-triggered
// bitmaps, per-domain write generations, bulk invalidation on
// snapshot restore (copy_state_from), the version-floor interplay with the
// raw frame stamps, subscriber notification edges, and a TSan-targeted
// stress — one writer thread per domain racing query, registration-churn
// and subscribe/unsubscribe threads.  Runs under the tsan ctest label.
//
// This suite deliberately polls frame_version()/write_counter() to pin the
// raw stamp semantics the watch layer is built on; the mc_analyze gate
// carves it out (--allow=watch-bypass:write_watch_test).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "vmm/hypervisor.hpp"
#include "vmm/phys_mem.hpp"
#include "vmm/write_watch.hpp"

namespace {

using namespace mc;
using namespace mc::vmm;

constexpr std::uint64_t kGuestMem = 1 << 20;

std::vector<std::uint32_t> frame_range(std::uint32_t first, std::uint32_t n) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(first + i);
  }
  return out;
}

void poke(Hypervisor& hv, DomainId d, std::uint64_t pa,
          std::uint8_t value = 0xAB) {
  const Bytes b = {value};
  hv.domain(d).memory().write(pa, ByteView(b));
}

TEST(WriteWatch, WriteMarksExactIndices) {
  Hypervisor hv;
  const DomainId d = hv.create_domain("d", kGuestMem);
  WriteWatch& watch = hv.write_watch();

  const auto id = watch.register_watch(d, frame_range(4, 3));  // frames 4..6
  EXPECT_NE(id, WriteWatch::kNoWatch);
  EXPECT_FALSE(watch.dirty(id));
  EXPECT_EQ(watch.watched_frames(id), frame_range(4, 3));

  poke(hv, d, 5 * kFrameSize + 100);  // frame 5 == index 1
  EXPECT_TRUE(watch.dirty(id));

  // drain = atomic fetch-and-clear: hands back the indices and clears them.
  EXPECT_EQ(watch.drain(id), std::vector<std::uint32_t>{1});
  EXPECT_FALSE(watch.dirty(id));
  EXPECT_TRUE(watch.drain(id).empty());
}

TEST(WriteWatch, EdgeTriggeredUntilRearm) {
  Hypervisor hv;
  const DomainId d = hv.create_domain("d", kGuestMem);
  WriteWatch& watch = hv.write_watch();
  const auto id = watch.register_watch(d, frame_range(4, 2));

  poke(hv, d, 4 * kFrameSize);
  poke(hv, d, 4 * kFrameSize + 8);  // same frame: still one dirty index
  EXPECT_TRUE(watch.dirty(id));
  EXPECT_TRUE(watch.dirty(id));  // a query does not clear the bit
  EXPECT_EQ(watch.drain(id), std::vector<std::uint32_t>{0});

  EXPECT_FALSE(watch.dirty(id));
  poke(hv, d, 4 * kFrameSize);  // re-marks after the drain
  EXPECT_TRUE(watch.dirty(id));
  EXPECT_EQ(watch.drain(id), std::vector<std::uint32_t>{0});
}

TEST(WriteWatch, CrossFrameWriteMarksEveryTouchedIndex) {
  Hypervisor hv;
  const DomainId d = hv.create_domain("d", kGuestMem);
  WriteWatch& watch = hv.write_watch();
  const auto id = watch.register_watch(d, frame_range(4, 3));

  const Bytes span(64, 0xCD);
  hv.domain(d).memory().write(5 * kFrameSize - 16, ByteView(span));
  EXPECT_EQ(watch.drain(id), (std::vector<std::uint32_t>{0, 1}));
}

TEST(WriteWatch, UnwatchedWritesAdvanceDomainGenerationOnly) {
  Hypervisor hv;
  const DomainId d = hv.create_domain("d", kGuestMem);
  WriteWatch& watch = hv.write_watch();
  const auto id = watch.register_watch(d, frame_range(4, 2));

  const std::uint64_t gen0 = watch.domain_write_generation(d);
  poke(hv, d, 40 * kFrameSize);  // far from the watch
  EXPECT_GT(watch.domain_write_generation(d), gen0);
  EXPECT_FALSE(watch.dirty(id));  // the watch itself stays clean
}

TEST(WriteWatch, SnapshotRestoreBulkInvalidates) {
  Hypervisor hv;
  const DomainId d = hv.create_domain("d", kGuestMem);
  WriteWatch& watch = hv.write_watch();

  poke(hv, d, 4 * kFrameSize, 0x11);
  const DomainSnapshot snap = hv.snapshot(d);
  const auto id = watch.register_watch(d, frame_range(4, 3));
  const std::uint64_t gen0 = watch.domain_write_generation(d);

  // restore -> copy_state_from -> PhysicalMemory::restore_from: the
  // frame<->content association the watch was registered under is gone, so
  // EVERY index goes dirty and the domain generation advances.
  hv.restore(snap);
  EXPECT_TRUE(watch.dirty(id));
  EXPECT_EQ(watch.drain(id).size(), 3u);
  EXPECT_GT(watch.domain_write_generation(d), gen0);
}

TEST(WriteWatch, VersionFloorKeepsStampsMonotonicAcrossRestore) {
  Hypervisor hv;
  const DomainId d = hv.create_domain("d", kGuestMem);
  PhysicalMemory& mem = hv.domain(d).memory();

  poke(hv, d, 4 * kFrameSize, 0x22);
  const std::uint64_t stamped = mem.frame_version(4);
  EXPECT_GT(stamped, 0u);

  const DomainSnapshot snap = hv.snapshot(d);
  hv.restore(snap);
  // The raw stamp surface the watch layer is built on: after a restore the
  // version floor rises above every pre-restore stamp, so even frames the
  // restore never touched read as "newer than anything seen before" — a
  // borrowed frame_view from before the restore must be considered stale.
  EXPECT_GT(mem.frame_version(4), stamped);
  EXPECT_GT(mem.frame_version(200), stamped);  // untouched frame: floor
  EXPECT_GE(mem.write_counter(), mem.frame_version(4));
}

TEST(WriteWatch, DropDomainExpiresItsWatches) {
  Hypervisor hv;
  const DomainId d = hv.create_domain("d", kGuestMem);
  WriteWatch& watch = hv.write_watch();
  const auto id = watch.register_watch(d, frame_range(4, 2));
  poke(hv, d, 4 * kFrameSize);
  ASSERT_TRUE(watch.dirty(id));

  hv.destroy_domain(d);
  EXPECT_FALSE(watch.dirty(id));  // expired ids answer clean/empty
  EXPECT_TRUE(watch.drain(id).empty());
  EXPECT_TRUE(watch.watched_frames(id).empty());
  EXPECT_EQ(watch.domain_write_generation(d), 0u);
  watch.unregister(id);  // double-teardown is a no-op, not an error
}

namespace {
struct Recorder : WriteWatch::Subscriber {
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> edges{0};
  void on_domain_write(DomainId) override { ++writes; }
  void on_watch_dirty(DomainId, WriteWatch::WatchId) override { ++edges; }
};
}  // namespace

TEST(WriteWatch, SubscriberSeesEveryWriteButOnlyDirtyEdges) {
  Hypervisor hv;
  const DomainId d = hv.create_domain("d", kGuestMem);
  WriteWatch& watch = hv.write_watch();
  const auto id = watch.register_watch(d, frame_range(4, 2));

  Recorder rec;
  watch.subscribe(&rec);
  poke(hv, d, 4 * kFrameSize);
  poke(hv, d, 4 * kFrameSize);  // already dirty: write fires, edge does not
  EXPECT_EQ(rec.writes.load(), 2u);
  EXPECT_EQ(rec.edges.load(), 1u);

  watch.drain(id);
  poke(hv, d, 4 * kFrameSize);  // clean->dirty again
  EXPECT_EQ(rec.edges.load(), 2u);

  watch.unsubscribe(&rec);
  poke(hv, d, 4 * kFrameSize);
  EXPECT_EQ(rec.writes.load(), 3u);  // no further callbacks
}

TEST(WriteWatch, ConcurrentWritersQueriesAndChurnAreRaceFree) {
  Hypervisor hv;
  const DomainId d1 = hv.create_domain("d1", kGuestMem);
  const DomainId d2 = hv.create_domain("d2", kGuestMem);
  WriteWatch& watch = hv.write_watch();
  const auto w1 = watch.register_watch(d1, frame_range(4, 8));
  const auto w2 = watch.register_watch(d2, frame_range(4, 8));

  constexpr int kWrites = 2000;
  Recorder rec;
  std::atomic<bool> stop{false};

  // PhysicalMemory is not internally thread-safe, so exactly one writer
  // thread per domain; every cross-thread interaction goes through the
  // WriteWatch, whose lock TSan then exercises.
  std::thread writer1([&] {
    for (int i = 0; i < kWrites; ++i) {
      poke(hv, d1, (4 + static_cast<std::uint64_t>(i % 8)) * kFrameSize);
    }
  });
  std::thread writer2([&] {
    for (int i = 0; i < kWrites; ++i) {
      poke(hv, d2, (4 + static_cast<std::uint64_t>(i % 8)) * kFrameSize);
    }
  });
  std::thread querier([&] {
    while (!stop.load()) {
      watch.dirty(w1);
      watch.dirty(w2);
      watch.domain_write_generation(d1);
      watch.drain(w2);
    }
  });
  std::thread churner([&] {
    while (!stop.load()) {
      const auto tmp = watch.register_watch(d1, frame_range(12, 2));
      watch.subscribe(&rec);
      watch.dirty(tmp);
      watch.unsubscribe(&rec);
      watch.unregister(tmp);
    }
  });

  writer1.join();
  writer2.join();
  stop.store(true);
  querier.join();
  churner.join();

  // Every write was observed: the domain generation counts them exactly.
  EXPECT_EQ(watch.domain_write_generation(d1),
            static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(watch.domain_write_generation(d2),
            static_cast<std::uint64_t>(kWrites));
  // And the watch still works after the churn.
  watch.drain(w1);
  poke(hv, d1, 4 * kFrameSize);
  EXPECT_TRUE(watch.dirty(w1));
}

}  // namespace
