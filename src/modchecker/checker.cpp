#include "modchecker/checker.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "modchecker/item_content.hpp"
#include "util/arena.hpp"

namespace mc::core {

namespace {
/// Item pairing key — the slow path matches items across the two modules
/// by (kind, name), first unused wins.
std::string pair_key(const IntegrityItem& item) {
  std::string key = std::to_string(static_cast<int>(item.kind));
  key += '\x1f';
  key += item.name;
  return key;
}
}  // namespace

PairComparison IntegrityChecker::compare(const ParsedModule& subject,
                                         const ParsedModule& other,
                                         SimClock& clock,
                                         DigestTable* memo) const {
  PairComparison result;
  result.other_domain = other.domain;
  clock.charge(costs_.compare_fixed);

  bool all_match = true;

  // Items are matched by (kind, name): identical module structure yields a
  // 1:1 pairing; structural attacks (an injected section, E4) leave
  // unmatched items, which are definite mismatches.  Indexing the other
  // side once keeps the pairing O(n) instead of O(n^2).
  std::vector<bool> other_used(other.items.size(), false);
  std::unordered_map<std::string, std::vector<std::size_t>> other_by_key;
  other_by_key.reserve(other.items.size());
  for (std::size_t j = 0; j < other.items.size(); ++j) {
    other_by_key[pair_key(other.items[j])].push_back(j);
  }
  std::unordered_map<std::string, std::size_t> next_candidate;
  // Index of `a`'s partner in other.items, or other.items.size() if none.
  auto find_match = [&](const IntegrityItem& a) -> std::size_t {
    const auto it = other_by_key.find(pair_key(a));
    if (it == other_by_key.end()) {
      return other.items.size();
    }
    std::size_t& cursor = next_candidate[it->first];
    if (cursor >= it->second.size()) {
      return other.items.size();
    }
    const std::size_t j = it->second[cursor++];
    other_used[j] = true;
    return j;
  };

  // Records both digests, charges hashing `bytes` of content and decides
  // the item on digest equality.
  auto decide = [&](ItemComparison& cmp, crypto::Digest digest_a,
                    crypto::Digest digest_b, std::size_t bytes) {
    cmp.digest_subject = std::move(digest_a);
    cmp.digest_other = std::move(digest_b);
    clock.charge(static_cast<SimNanos>(
        static_cast<double>(costs_.hash_per_byte * bytes) *
        digest_cost_factor(algorithm_)));
    cmp.match = cmp.digest_subject == cmp.digest_other;
  };

  for (std::size_t i = 0; i < subject.items.size(); ++i) {
    const IntegrityItem& a = subject.items[i];
    ItemComparison cmp;
    cmp.item_name = a.name;
    cmp.kind = a.kind;

    const std::size_t j = find_match(a);
    if (j == other.items.size()) {
      // Present on the subject only (e.g. an attacker-added section).
      cmp.match = false;
      all_match = false;
      result.items.push_back(std::move(cmp));
      continue;
    }
    const IntegrityItem& b = other.items[j];

    if (a.rva_sensitive) {
      // Work on arena scratch copies: Algorithm 2 mutates the buffers, and
      // each pairwise comparison must start from the pristine extractions.
      // The scope recycles the space per pair — zero heap traffic.
      ArenaScope scope(scratch_arena());
      MutableByteView buf_a = arena_content_copy(scratch_arena(), a);
      MutableByteView buf_b = arena_content_copy(scratch_arena(), b);
      const RvaAdjustResult adj = adjust_fixups(buf_a, subject.base, buf_b,
                                                other.base, subject.fixups);
      cmp.rvas_adjusted = adj.adjusted;
      cmp.unresolved_diffs = adj.unresolved_diffs;
      clock.charge(costs_.rva_scan_per_byte *
                   std::max(buf_a.size(), buf_b.size()));
      decide(cmp, crypto::hash_bytes(algorithm_, buf_a),
             crypto::hash_bytes(algorithm_, buf_b),
             buf_a.size() + buf_b.size());
    } else if (memo != nullptr) {
      // Raw-byte item: the match criterion is digest equality of the
      // unmodified extractions, so memoized values are exact.
      cmp.digest_subject = memo->digest(subject.domain, i, a, clock);
      cmp.digest_other = memo->digest(other.domain, j, b, clock);
      cmp.match = cmp.digest_subject == cmp.digest_other;
    } else {
      // Digests stream the spans, so view-backed items never flatten.
      decide(cmp, hash_item_content(algorithm_, a),
             hash_item_content(algorithm_, b),
             a.content_size() + b.content_size());
    }

    all_match = all_match && cmp.match;
    result.items.push_back(std::move(cmp));
  }

  // Items present on the other VM only.
  for (std::size_t j = 0; j < other.items.size(); ++j) {
    if (other_used[j]) {
      continue;
    }
    ItemComparison cmp;
    cmp.item_name = other.items[j].name;
    cmp.kind = other.items[j].kind;
    cmp.match = false;
    all_match = false;
    result.items.push_back(std::move(cmp));
  }

  result.all_match = all_match;
  return result;
}

}  // namespace mc::core
