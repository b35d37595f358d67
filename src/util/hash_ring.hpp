// Consistent-hash ring with virtual nodes.
//
// The partitioned scheduler assigns modules to simulated checker
// instances.  It needs the property that when the node set changes by one
// (a checker is added or removed), only ~1/N of the keys move — a modulo
// assignment would reshuffle almost everything and throw away every warm
// cache on the survivors.  The classic fix is a hash ring:
// each node projects `virtual_nodes` points onto a 64-bit circle, and a
// key belongs to the first node point at or clockwise of the key's own
// hash.  Virtual nodes smooth the per-node share (the standard deviation
// of a node's arc length shrinks with sqrt(V)).
//
// Everything is deterministic: FNV-1a over stable strings, no seeds, no
// host entropy — the same node set always yields the same assignment, which
// keeps scheduler timelines replayable under SimClock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace mc {

/// FNV-1a 64-bit: tiny, seedless, and stable across platforms — exactly
/// what ring placement needs (speed and crypto strength do not matter,
/// reproducibility does).
constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x00000100000001B3ull;
  }
  return h;
}

/// MurmurHash3 fmix64 finalizer.  Raw FNV-1a of strings that differ only
/// in their trailing digits ("pool-0".."pool-7", "…/vnode-63") lands
/// within a ~2^48-wide arc of the 2^64 circle — the last byte perturbs the
/// state once and the differences never avalanche, so every key (and every
/// node's vnodes) would cluster onto one owner.  The finalizer spreads the
/// low-byte differences across all 64 bits; placement stays seedless and
/// platform-stable.
constexpr std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

/// The ring's placement hash: avalanche-finalized FNV-1a.
constexpr std::uint64_t ring_hash(std::string_view s) {
  return mix64(fnv1a64(s));
}

class HashRing {
 public:
  explicit HashRing(std::size_t virtual_nodes = 64)
      : virtual_nodes_(virtual_nodes) {
    MC_CHECK(virtual_nodes_ >= 1, "hash ring needs at least one vnode");
  }

  /// Projects `node`'s virtual points onto the ring.  Adding a node moves
  /// only the keys that now fall on one of its arcs.
  void add_node(std::size_t node) {
    MC_CHECK(!contains(node), "hash ring node added twice");
    for (std::size_t v = 0; v < virtual_nodes_; ++v) {
      const std::string point =
          "node-" + std::to_string(node) + "/vnode-" + std::to_string(v);
      ring_.push_back({ring_hash(point), node});
    }
    std::sort(ring_.begin(), ring_.end());
  }

  /// Removes every virtual point of `node`; its keys fall to the next
  /// points clockwise (spread across the survivors, not to one victim).
  void remove_node(std::size_t node) {
    std::erase_if(ring_, [&](const auto& p) { return p.second == node; });
  }

  bool contains(std::size_t node) const {
    return std::any_of(ring_.begin(), ring_.end(),
                       [&](const auto& p) { return p.second == node; });
  }

  std::size_t node_count() const { return ring_.size() / virtual_nodes_; }
  bool empty() const { return ring_.empty(); }

  /// The node owning `key`.  Ring must be non-empty.
  std::size_t owner(std::string_view key) const {
    MC_CHECK(!ring_.empty(), "hash ring has no nodes");
    const std::uint64_t h = ring_hash(key);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), h,
        [](const auto& p, std::uint64_t v) { return p.first < v; });
    if (it == ring_.end()) {
      it = ring_.begin();  // wrap around the circle
    }
    return it->second;
  }

  /// Owner of the canonical key for an indexed entity ("key-<index>") —
  /// the form the coordinator uses for pool indices and the scheduler for
  /// partition-keyed modules.
  std::size_t owner_of_index(std::string_view kind, std::size_t index) const {
    return owner(std::string(kind) + "-" + std::to_string(index));
  }

 private:
  std::size_t virtual_nodes_;
  /// (hash, node), sorted by hash.  Ties are impossible in practice (64-bit
  /// FNV over distinct strings); if one occurred the sort order by node id
  /// keeps assignment deterministic anyway.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
};

}  // namespace mc
