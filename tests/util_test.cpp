// Unit tests for mc_util: byte helpers, RNG determinism, simulated clock,
// thread pool, consistent-hash ring, UTF-16, hexdump.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/hash_ring.hpp"
#include "util/hexdump.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_pool.hpp"
#include "util/utf16.hpp"

namespace {

using namespace mc;

// ---- little-endian helpers ---------------------------------------------------
TEST(Bytes, LoadStoreRoundTrip16) {
  Bytes buf(8, 0);
  store_le16(buf, 2, 0xBEEF);
  EXPECT_EQ(buf[2], 0xEF);
  EXPECT_EQ(buf[3], 0xBE);
  EXPECT_EQ(load_le16(buf, 2), 0xBEEF);
}

TEST(Bytes, LoadStoreRoundTrip32) {
  Bytes buf(8, 0);
  store_le32(buf, 1, 0xDEADBEEF);
  EXPECT_EQ(load_le32(buf, 1), 0xDEADBEEFu);
  EXPECT_EQ(buf[1], 0xEF);
  EXPECT_EQ(buf[4], 0xDE);
}

TEST(Bytes, LoadStoreRoundTrip64) {
  Bytes buf(16, 0);
  store_le64(buf, 3, 0x0123456789ABCDEFull);
  EXPECT_EQ(load_le64(buf, 3), 0x0123456789ABCDEFull);
}

TEST(Bytes, OutOfRangeAccessThrows) {
  Bytes buf(4, 0);
  EXPECT_THROW(load_le32(buf, 1), InvalidArgument);
  EXPECT_THROW(load_le16(buf, 3), InvalidArgument);
  EXPECT_THROW(store_le32(buf, 2, 1), InvalidArgument);
  EXPECT_NO_THROW(load_le32(buf, 0));
}

TEST(Bytes, AppendHelpers) {
  Bytes out;
  append_le16(out, 0x1122);
  append_le32(out, 0x33445566);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(load_le16(out, 0), 0x1122);
  EXPECT_EQ(load_le32(out, 2), 0x33445566u);
}

TEST(Bytes, AppendPaddedAscii) {
  Bytes out;
  append_padded_ascii(out, "abc", 8);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(out[2], 'c');
  EXPECT_EQ(out[3], 0);
  EXPECT_THROW(append_padded_ascii(out, "too long!", 4), InvalidArgument);
}

TEST(Bytes, AlignUp) {
  EXPECT_EQ(align_up(0, 0x1000), 0u);
  EXPECT_EQ(align_up(1, 0x1000), 0x1000u);
  EXPECT_EQ(align_up(0x1000, 0x1000), 0x1000u);
  EXPECT_EQ(align_up(0x1001, 0x1000), 0x2000u);
  EXPECT_EQ(align_up(513, 0x200), 0x400u);
}

TEST(Bytes, SliceBounds) {
  const Bytes buf = {1, 2, 3, 4, 5};
  const Bytes s = slice(buf, 1, 3);
  EXPECT_EQ(s, (Bytes{2, 3, 4}));
  EXPECT_THROW(slice(buf, 3, 3), InvalidArgument);
  EXPECT_EQ(slice(buf, 5, 0), Bytes{});
}

// ---- RNG ---------------------------------------------------------------------
TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, XoshiroSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next() == b.next();
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, RangeStaysInBounds) {
  Xoshiro256 rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(Rng, UnitInHalfOpenInterval) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceIsCalibrated) {
  Xoshiro256 rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.chance(0.25);
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

// ---- SimClock ------------------------------------------------------------------
TEST(SimClock, AccumulatesCharges) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.charge(100);
  clock.charge(50);
  EXPECT_EQ(clock.now(), 150u);
}

TEST(SimClock, SlowdownScalesCharges) {
  SimClock clock;
  clock.set_slowdown(2.5);
  clock.charge(100);
  EXPECT_EQ(clock.now(), 250u);
}

TEST(SimClock, SlowdownClampsBelowOne) {
  SimClock clock;
  clock.set_slowdown(0.1);
  EXPECT_DOUBLE_EQ(clock.slowdown(), 1.0);
}

TEST(SimClock, RawAdvanceIgnoresSlowdown) {
  SimClock clock;
  clock.set_slowdown(10.0);
  clock.advance_raw(7);
  EXPECT_EQ(clock.now(), 7u);
}

TEST(SimClock, Formatting) {
  EXPECT_EQ(format_sim_nanos(500), "500 ns");
  EXPECT_EQ(format_sim_nanos(sim_us(12)), "12.00 us");
  EXPECT_EQ(format_sim_nanos(sim_ms(3)), "3.00 ms");
  EXPECT_EQ(format_sim_nanos(2500000000ull), "2.500 s");
}

TEST(SimClock, Conversions) {
  EXPECT_EQ(sim_us(1), 1000u);
  EXPECT_EQ(sim_ms(1), 1000000u);
  EXPECT_DOUBLE_EQ(to_ms(sim_ms(5)), 5.0);
}

// ---- ThreadPool ------------------------------------------------------------------
TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&counter, i] {
      counter.fetch_add(1);
      return i * 2;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * 2);
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsPendingTasksOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), InvalidArgument);
}

// ---- HashRing --------------------------------------------------------------------

std::vector<std::string> pool_keys(std::size_t count) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back("pool-" + std::to_string(i));
  }
  return keys;
}

// Regression for the FNV-1a clustering bug: keys differing only in their
// trailing digits must not all land on one node.  Raw FNV-1a put every
// "pool-N" key within a ~2^48 arc (the last byte never avalanches), so one
// shard owned the whole fleet; ring_hash's fmix64 finalizer spreads them.
TEST(HashRing, TrailingDigitKeysSpreadAcrossNodes) {
  HashRing ring;
  for (std::size_t n = 0; n < 4; ++n) {
    ring.add_node(n);
  }
  std::map<std::size_t, std::size_t> load;
  for (const std::string& key : pool_keys(24)) {
    ++load[ring.owner(key)];
  }
  EXPECT_EQ(load.size(), 4u) << "every node must own at least one key";
  for (const auto& [node, count] : load) {
    EXPECT_LT(count, 24u / 2) << "node " << node << " owns half the keys";
  }
}

TEST(HashRing, OwnerIsDeterministicAcrossRings) {
  HashRing a;
  HashRing b;
  for (std::size_t n = 0; n < 5; ++n) {
    a.add_node(n);
    b.add_node(n);
  }
  for (const std::string& key : pool_keys(50)) {
    EXPECT_EQ(a.owner(key), b.owner(key)) << key;
  }
  EXPECT_EQ(a.owner_of_index("pool", 7), a.owner("pool-7"));
}

TEST(HashRing, AddNodeMovesOnlyKeysItNowOwns) {
  HashRing ring;
  for (std::size_t n = 0; n < 8; ++n) {
    ring.add_node(n);
  }
  const auto keys = pool_keys(200);
  std::vector<std::size_t> before;
  for (const std::string& key : keys) {
    before.push_back(ring.owner(key));
  }

  ring.add_node(8);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t now = ring.owner(keys[i]);
    if (now != before[i]) {
      EXPECT_EQ(now, 8u) << "a moved key may only move to the new node";
      ++moved;
    }
  }
  // The new node's fair share is 1/9 of the keys; allow generous slack but
  // reject a reshuffle (modulo assignment would move ~8/9 of them).
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, keys.size() / 2);
}

TEST(HashRing, RemoveNodeLeavesSurvivorAssignmentsUntouched) {
  HashRing ring;
  for (std::size_t n = 0; n < 4; ++n) {
    ring.add_node(n);
  }
  const auto keys = pool_keys(100);
  std::vector<std::size_t> before;
  for (const std::string& key : keys) {
    before.push_back(ring.owner(key));
  }
  const std::size_t dead = ring.owner(keys[0]);

  ring.remove_node(dead);
  EXPECT_FALSE(ring.contains(dead));
  EXPECT_EQ(ring.node_count(), 3u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t now = ring.owner(keys[i]);
    EXPECT_NE(now, dead);
    if (before[i] != dead) {
      EXPECT_EQ(now, before[i])
          << keys[i] << " was not on the dead node and must not move";
    }
  }
}

// ---- UTF-16 ------------------------------------------------------------------------
TEST(Utf16, RoundTrip) {
  const std::string name = "hal.dll";
  const Bytes encoded = ascii_to_utf16le(name);
  ASSERT_EQ(encoded.size(), 14u);
  EXPECT_EQ(encoded[0], 'h');
  EXPECT_EQ(encoded[1], 0);
  EXPECT_EQ(utf16le_to_ascii(encoded), name);
}

TEST(Utf16, RejectsNonAscii) {
  EXPECT_THROW(ascii_to_utf16le("caf\xC3\xA9"), InvalidArgument);
  const Bytes wide = {0x01, 0x30};  // U+3001
  EXPECT_THROW(utf16le_to_ascii(wide), FormatError);
}

TEST(Utf16, RejectsOddLength) {
  const Bytes odd = {'a', 0, 'b'};
  EXPECT_THROW(utf16le_to_ascii(odd), FormatError);
}

TEST(Utf16, StopsAtEmbeddedTerminator) {
  Bytes buf = ascii_to_utf16le("ab");
  buf.push_back(0);
  buf.push_back(0);
  Bytes tail = ascii_to_utf16le("cd");
  buf.insert(buf.end(), tail.begin(), tail.end());
  EXPECT_EQ(utf16le_to_ascii(buf), "ab");
}

// ---- hexdump -------------------------------------------------------------------------
TEST(Hexdump, HexBytesFormat) {
  const Bytes data = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(hex_bytes(data), "de ad be ef");
  EXPECT_EQ(hex_bytes(data, 2), "de ad ...");
}

TEST(Hexdump, Hex32Padding) {
  EXPECT_EQ(hex32(0xF8CC2000), "f8cc2000");
  EXPECT_EQ(hex32(0x1), "00000001");
}

TEST(Hexdump, FullDumpShape) {
  Bytes data(20, 0x41);  // 'A'
  const std::string dump = hexdump(data, 0x1000);
  EXPECT_NE(dump.find("00001000"), std::string::npos);
  EXPECT_NE(dump.find("|AAAAAAAAAAAAAAAA|"), std::string::npos);
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 2);
}

// ---- MC_CHECK -------------------------------------------------------------------------
TEST(Check, ThrowsWithContext) {
  try {
    MC_CHECK(1 == 2, "math is broken");
    FAIL() << "MC_CHECK did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

}  // namespace
