// Unit tests for mc_vmi: the LibVMI-like introspection session — symbol
// resolution via the debug-block scan, V2P translation with caching,
// page-wise reads, UNICODE_STRING decoding, cost accounting — and the
// GuestView every module image and integrity item is.
#include <gtest/gtest.h>

#include <memory>

#include "cloud/environment.hpp"
#include "fallible_test_util.hpp"
#include "guestos/winlike.hpp"
#include "util/error.hpp"
#include "vmi/guest_view.hpp"
#include "vmi/session.hpp"
#include "vmi/session_pool.hpp"
#include "workload/heavyload.hpp"

namespace {

using namespace mc;
using test::fault_code;
using test::must;

class VmiTest : public ::testing::Test {
 protected:
  VmiTest() {
    cloud::CloudConfig cfg;
    cfg.guest_count = 2;
    env_ = std::make_unique<cloud::CloudEnvironment>(cfg);
  }

  vmm::DomainId guest() const { return env_->guests()[0]; }

  /// The session-owned "vmi.*" counter `name`, read from metrics_.
  std::uint64_t counter(const std::string& name) {
    return metrics_.counter("vmi." + name).value();
  }

  std::unique_ptr<cloud::CloudEnvironment> env_;
  SimClock clock_;
  telemetry::MetricRegistry metrics_;
};

TEST_F(VmiTest, AttachToMissingDomainThrows) {
  EXPECT_THROW(vmi::VmiSession(env_->hypervisor(), 999, clock_),
               NotFoundError);
}

TEST_F(VmiTest, AttachChargesTime) {
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_);
  EXPECT_GE(clock_.now(), session.costs().attach);
}

TEST_F(VmiTest, DebugBlockScanResolvesSymbols) {
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_, {}, &metrics_);
  const std::uint32_t va = must(session.try_symbol_to_va("PsLoadedModuleList"));
  EXPECT_EQ(va, env_->kernel(guest()).ps_loaded_module_list_va());
  EXPECT_GT(counter("kdbg_frames_scanned"), 0u);
  EXPECT_EQ(must(session.try_symbol_to_va("KernBase")), 0x80000000u);
}

TEST_F(VmiTest, UnknownSymbolThrows) {
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_);
  EXPECT_THROW((void)session.try_symbol_to_va("NoSuchSymbol"), VmiError);
}

TEST_F(VmiTest, ScanHappensOnce) {
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_, {}, &metrics_);
  must(session.try_symbol_to_va("PsLoadedModuleList"));
  const auto scanned = counter("kdbg_frames_scanned");
  must(session.try_symbol_to_va("PsLoadedModuleList"));
  EXPECT_EQ(counter("kdbg_frames_scanned"), scanned);
}

TEST_F(VmiTest, TranslationMatchesGuestPageTables) {
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_);
  const std::uint32_t va = env_->kernel(guest()).ps_loaded_module_list_va();
  const auto expected = env_->kernel(guest()).address_space().translate(va);
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(must(session.try_translate_kv2p(va)), *expected);
}

TEST_F(VmiTest, TranslationCacheHits) {
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_, {}, &metrics_);
  const std::uint32_t va = env_->kernel(guest()).ps_loaded_module_list_va();
  must(session.try_translate_kv2p(va));
  const auto hits_before = counter("translation_cache_hits");
  must(session.try_translate_kv2p(va + 4));  // same page
  EXPECT_EQ(counter("translation_cache_hits"), hits_before + 1);
}

TEST_F(VmiTest, UnmappedVaIsATranslationFault) {
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_);
  EXPECT_EQ(fault_code(session.try_translate_kv2p(0x70000000)),
            FaultCode::kTranslationFault);
  Bytes buf(4, 0);
  EXPECT_EQ(fault_code(session.try_read_va(0x70000000, buf)),
            FaultCode::kTranslationFault);
}

TEST_F(VmiTest, FrameBeyondRamIsAReadFault) {
  const auto* hal = env_->loader(guest()).find("hal.dll");
  ASSERT_NE(hal, nullptr);
  constexpr std::uint64_t kBeyondRam = 0xFFFFF000u;
  env_->kernel(guest()).address_space().map_page(hal->base, kBeyondRam, true);
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_);
  const auto pa = session.try_translate_kv2p(hal->base);
  ASSERT_FALSE(pa.ok());
  EXPECT_EQ(pa.fault().code, FaultCode::kReadFault);
  EXPECT_EQ(pa.fault().pa, kBeyondRam);
}

TEST_F(VmiTest, ReadsMatchGuestMemory) {
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_);
  const auto* hal = env_->loader(guest()).find("hal.dll");
  ASSERT_NE(hal, nullptr);

  // Cross several pages to exercise the chunked path.
  const std::size_t len = 3 * vmm::kFrameSize + 123;
  const Bytes via_vmi = must(session.try_read_region(hal->base, len));
  Bytes direct(len, 0);
  env_->kernel(guest()).address_space().read_virtual(hal->base, direct);
  EXPECT_EQ(via_vmi, direct);
}

TEST_F(VmiTest, ReadStatsAccumulate) {
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_, {}, &metrics_);
  const auto* hal = env_->loader(guest()).find("hal.dll");
  ASSERT_NE(hal, nullptr);
  must(session.try_read_region(hal->base, 2 * vmm::kFrameSize));
  EXPECT_GE(counter("pages_mapped"), 2u);
  EXPECT_EQ(counter("bytes_copied"), 2u * vmm::kFrameSize);
  EXPECT_GE(counter("read_calls"), 1u);
}

TEST_F(VmiTest, TypedReads) {
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_);
  const std::uint32_t head =
      must(session.try_symbol_to_va("PsLoadedModuleList"));
  const std::uint32_t flink = must(session.try_read_u32(head));
  EXPECT_NE(flink, 0u);
  EXPECT_NE(flink, head);  // modules are loaded
  const std::uint16_t lo = must(session.try_read_u16(head));
  EXPECT_EQ(lo, flink & 0xFFFF);
}

TEST_F(VmiTest, ReadUnicodeString) {
  vmi::VmiSession session(env_->hypervisor(), guest(), clock_);
  const std::uint32_t head =
      must(session.try_symbol_to_va("PsLoadedModuleList"));
  const std::uint32_t first_entry = must(session.try_read_u32(head));
  const std::string name = must(session.try_read_unicode_string(
      first_entry + guestos::kOffBaseDllName));
  EXPECT_EQ(name, "ntoskrnl.exe");  // first module in load order
}

TEST_F(VmiTest, CostsScaleWithBytes) {
  // Superlinear page cost is a property of the *unbatched* read path (every
  // page pays the full map cost); coalescing deliberately flattens it, so
  // pin it off here.
  vmi::VmiCostModel costs;
  costs.coalesce_reads = false;
  vmi::VmiSession s1(env_->hypervisor(), guest(), clock_, costs);
  const auto* hal = env_->loader(guest()).find("hal.dll");
  ASSERT_NE(hal, nullptr);

  const SimNanos before = clock_.now();
  must(s1.try_read_region(hal->base, vmm::kFrameSize));
  const SimNanos small = clock_.now() - before;

  const SimNanos before2 = clock_.now();
  must(s1.try_read_region(hal->base, 8 * vmm::kFrameSize));
  const SimNanos large = clock_.now() - before2;
  EXPECT_GT(large, 4 * small);
}

TEST_F(VmiTest, ContentionInflatesCharges) {
  // Same read, idle vs loaded pool: the loaded one must charge more.
  const auto* hal = env_->loader(guest()).find("hal.dll");
  ASSERT_NE(hal, nullptr);

  SimClock idle_clock;
  {
    vmi::VmiSession session(env_->hypervisor(), guest(), idle_clock);
    must(session.try_read_region(hal->base, 4 * vmm::kFrameSize));
  }

  workload::HeavyLoad heavyload(*env_);
  heavyload.stress_guests(env_->guests().size());
  SimClock loaded_clock;
  {
    vmi::VmiSession session(env_->hypervisor(), guest(), loaded_clock);
    must(session.try_read_region(hal->base, 4 * vmm::kFrameSize));
  }
  EXPECT_GT(loaded_clock.now(), idle_clock.now());
}

TEST_F(VmiTest, BatchedReadMatchesUnbatchedByteForByte) {
  const auto* hal = env_->loader(guest()).find("hal.dll");
  ASSERT_NE(hal, nullptr);
  const std::size_t len = 5 * vmm::kFrameSize + 777;

  vmi::VmiCostModel plain;
  plain.coalesce_reads = false;
  SimClock plain_clock;
  telemetry::MetricRegistry plain_metrics;
  vmi::VmiSession unbatched(env_->hypervisor(), guest(), plain_clock, plain,
                            &plain_metrics);
  const Bytes a = must(unbatched.try_read_region(hal->base, len));

  SimClock batched_clock;
  vmi::VmiSession batched(env_->hypervisor(), guest(), batched_clock, {},
                          &metrics_);
  const Bytes b = must(batched.try_read_region(hal->base, len));

  const auto unbatched_counter = [&](const char* name) {
    return plain_metrics.counter(std::string("vmi.") + name).value();
  };
  EXPECT_EQ(a, b);
  // Same work copied either way; batching only cheapens the page maps.
  EXPECT_EQ(counter("bytes_copied"), unbatched_counter("bytes_copied"));
  EXPECT_EQ(counter("pages_mapped"), unbatched_counter("pages_mapped"));
  // Module images sit in physically contiguous frames, so the run after
  // the first page coalesces.
  EXPECT_GT(counter("batched_pages"), 0u);
  EXPECT_EQ(unbatched_counter("batched_pages"), 0u);
  EXPECT_LT(batched_clock.now(), plain_clock.now());
}

TEST_F(VmiTest, SessionPoolReusesWarmSessions) {
  vmi::VmiSessionPool pool(env_->hypervisor(), {}, &metrics_);

  SimClock first_clock;
  {
    auto lease = pool.acquire(guest(), first_clock);
    must(lease->try_symbol_to_va("PsLoadedModuleList"));
  }
  const SimNanos cold = first_clock.now();

  SimClock second_clock;
  {
    auto lease = pool.acquire(guest(), second_clock);
    // Warm session: symbols resolved, no re-attach, no re-scan.
    must(lease->try_symbol_to_va("PsLoadedModuleList"));
    EXPECT_GT(counter("session_reuses"), 0u);
  }
  EXPECT_LT(second_clock.now(), cold);

  const auto stats = pool.stats();
  EXPECT_EQ(stats.created, 1u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.invalidated, 0u);
}

TEST_F(VmiTest, SessionPoolKeepsDomainsSeparate) {
  vmi::VmiSessionPool pool(env_->hypervisor());
  auto a = pool.acquire(env_->guests()[0], clock_);
  auto b = pool.acquire(env_->guests()[1], clock_);
  EXPECT_NE(&a.session(), &b.session());
  EXPECT_EQ(pool.stats().created, 2u);
}

TEST_F(VmiTest, SessionPoolInvalidatesOnSnapshotRestore) {
  env_->snapshot_all();
  vmi::VmiSessionPool pool(env_->hypervisor());
  { auto lease = pool.acquire(guest(), clock_); }

  // Restoring the snapshot rewinds the domain (epoch bump): the pooled
  // session's V2P cache and symbol map may describe a stale world.
  env_->revert(guest());
  SimClock fresh_clock;
  { auto lease = pool.acquire(guest(), fresh_clock); }

  const auto stats = pool.stats();
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(stats.created, 2u);
  EXPECT_EQ(stats.reused, 0u);
  // The re-attach pays the full cold cost again.
  EXPECT_GE(fresh_clock.now(), vmi::VmiCostModel{}.attach);
}

TEST_F(VmiTest, SessionIsReadOnlyByConstruction) {
  // Compile-time property documented at runtime: the session exposes no
  // write entry points; verify a full read leaves guest memory identical.
  const auto* hal = env_->loader(guest()).find("hal.dll");
  ASSERT_NE(hal, nullptr);
  Bytes before(hal->size_of_image, 0);
  env_->kernel(guest()).address_space().read_virtual(hal->base, before);

  vmi::VmiSession session(env_->hypervisor(), guest(), clock_);
  must(session.try_read_region(hal->base, hal->size_of_image));

  Bytes after(hal->size_of_image, 0);
  env_->kernel(guest()).address_space().read_virtual(hal->base, after);
  EXPECT_EQ(before, after);
}

// ---- GuestView --------------------------------------------------------------

/// Three separate buffers as one view: "abcd" + "efg" + "hijkl", with a
/// gap between them so no two segments coalesce.
struct Scattered {
  Scattered() {
    view.append(ByteView(backing).subspan(0, 4));
    view.append(ByteView(backing).subspan(5, 3));
    view.append(ByteView(backing).subspan(9, 5));
  }
  const Bytes backing = {'a', 'b', 'c', 'd', '_', 'e', 'f', 'g',
                         '_', 'h', 'i', 'j', 'k', 'l'};
  vmi::GuestView view;
};

std::string text_of(const vmi::GuestView& v) {
  const Bytes b = v.materialize();
  return std::string(b.begin(), b.end());
}

TEST(GuestView, ByteViewConstructorIsOneSegment) {
  const Bytes buffer = {1, 2, 3, 4, 5};
  const vmi::GuestView view = ByteView(buffer);
  ASSERT_EQ(view.segments().size(), 1u);
  EXPECT_TRUE(view.contiguous());
  EXPECT_EQ(view.size(), buffer.size());
  EXPECT_EQ(view.as_contiguous().data(), buffer.data());  // borrowed
  EXPECT_EQ(view.materialize(), buffer);

  const vmi::GuestView empty = ByteView();
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.segments().empty());
  EXPECT_TRUE(empty.contiguous());
  EXPECT_TRUE(empty.as_contiguous().empty());
  EXPECT_TRUE(empty.materialize().empty());
}

TEST(GuestView, AppendCoalescesAdjacentSpansAndSkipsEmptyOnes) {
  const Bytes buffer = {1, 2, 3, 4, 5, 6, 7, 8};
  vmi::GuestView view;
  view.append(ByteView(buffer).subspan(0, 3));
  view.append(ByteView());                      // skipped
  view.append(ByteView(buffer).subspan(3, 0));  // skipped
  view.append(ByteView(buffer).subspan(3, 2));  // host-adjacent: coalesces
  ASSERT_EQ(view.segments().size(), 1u);
  EXPECT_EQ(view.size(), 5u);
  view.append(ByteView(buffer).subspan(6, 2));  // a gap: a second segment
  ASSERT_EQ(view.segments().size(), 2u);
  EXPECT_EQ(view.size(), 7u);
  EXPECT_EQ(view.materialize(), (Bytes{1, 2, 3, 4, 5, 7, 8}));
}

TEST(GuestView, SubviewAcrossSegmentBoundaries) {
  const Scattered s;
  ASSERT_EQ(s.view.segments().size(), 3u);
  EXPECT_EQ(text_of(s.view), "abcdefghijkl");

  // Across the first and second boundary.
  const vmi::GuestView mid = s.view.subview(2, 7);
  EXPECT_EQ(text_of(mid), "cdefghi");
  EXPECT_EQ(mid.segments().size(), 3u);
  EXPECT_EQ(mid.segments()[0].data(), s.backing.data() + 2);  // borrowed
  // Inside one segment: one span.
  EXPECT_TRUE(s.view.subview(4, 3).contiguous());
  EXPECT_EQ(text_of(s.view.subview(4, 3)), "efg");
  // At the end, and the empty tail.
  EXPECT_EQ(text_of(s.view.subview(9, 3)), "jkl");
  EXPECT_TRUE(s.view.subview(12, 0).empty());
  // Zero length anywhere is an empty view with no segments.
  const vmi::GuestView none = s.view.subview(5, 0);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.segments().empty());
  // The whole view.
  EXPECT_EQ(text_of(s.view.subview(0, s.view.size())), "abcdefghijkl");
}

TEST(GuestView, ByteAtAndReadIntoWalkTheSegments) {
  const Scattered s;
  EXPECT_EQ(s.view.byte_at(0), 'a');
  EXPECT_EQ(s.view.byte_at(4), 'e');
  EXPECT_EQ(s.view.byte_at(11), 'l');
  Bytes out(5, 0);
  s.view.read_into(3, MutableByteView(out));
  EXPECT_EQ(std::string(out.begin(), out.end()), "defgh");
  s.view.read_into(12, MutableByteView());  // empty read at the end
}

TEST(GuestView, OutOfRangeAccessThrows) {
  const Scattered s;
  const std::size_t n = s.view.size();
  EXPECT_THROW(s.view.subview(n - 2, 3), InvalidArgument);
  EXPECT_THROW(s.view.subview(n + 1, 0), InvalidArgument);
  Bytes out(4, 0);
  EXPECT_THROW(s.view.read_into(n - 3, MutableByteView(out)), InvalidArgument);
  EXPECT_THROW(s.view.byte_at(n), InvalidArgument);
  EXPECT_THROW(vmi::GuestView().byte_at(0), InvalidArgument);
}

TEST(GuestView, AsContiguousOnAScatteredViewThrows) {
  const Scattered s;
  EXPECT_FALSE(s.view.contiguous());
  EXPECT_THROW(s.view.as_contiguous(), InvalidArgument);
}

}  // namespace
