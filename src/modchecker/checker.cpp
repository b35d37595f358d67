#include "modchecker/checker.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "modchecker/item_content.hpp"
#include "util/arena.hpp"
#include "util/simd.hpp"

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

/// Partner of each subject item in other.items: the first unused item
/// with the same (kind, name), or other.items.size() when none is left.
/// Identical module structure yields a 1:1 pairing; structural attacks
/// (an injected section, E4) leave unmatched items.
std::vector<std::size_t> pair_items(const ParsedModule& subject,
                                    const ParsedModule& other) {
  const std::size_t none = other.items.size();
  std::vector<std::size_t> partner(subject.items.size(), none);
  // Same keys at every position — the clean and the content-patched case —
  // is exactly the identity under first-unused pairing.
  bool positional = subject.items.size() == other.items.size();
  for (std::size_t i = 0; positional && i < subject.items.size(); ++i) {
    positional = subject.items[i].kind == other.items[i].kind &&
                 subject.items[i].name == other.items[i].name;
  }
  if (positional) {
    for (std::size_t i = 0; i < partner.size(); ++i) {
      partner[i] = i;
    }
    return partner;
  }
  // Indexing the other side once keeps the pairing O(n), not O(n^2).
  std::unordered_map<std::string, std::vector<std::size_t>> other_by_key;
  other_by_key.reserve(other.items.size());
  for (std::size_t j = 0; j < other.items.size(); ++j) {
    other_by_key[pair_key(other.items[j])].push_back(j);
  }
  std::unordered_map<std::string, std::size_t> next_candidate;
  for (std::size_t i = 0; i < subject.items.size(); ++i) {
    const auto it = other_by_key.find(pair_key(subject.items[i]));
    if (it == other_by_key.end()) {
      continue;
    }
    std::size_t& cursor = next_candidate[it->first];
    if (cursor < it->second.size()) {
      partner[i] = it->second[cursor++];
    }
  }
  return partner;
}

/// The item's content as one contiguous span: in place when it already is
/// one, otherwise an `arena` copy.
ByteView flat_content(Arena& arena, const IntegrityItem& item) {
  if (item.view.contiguous()) {
    return item.view.as_contiguous();
  }
  return arena_content_copy(arena, item);
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
  const std::vector<std::size_t> partner = pair_items(subject, other);
  std::vector<bool> other_used(other.items.size(), false);

  // Records both digests, charges hashing `bytes` of content and decides
  // the item on digest equality.
  auto settle = [&](ItemComparison& cmp, crypto::Digest digest_a,
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

    const std::size_t j = partner[i];
    if (j == other.items.size()) {
      // Present on the subject only (e.g. an attacker-added section).
      cmp.match = false;
      all_match = false;
      result.items.push_back(std::move(cmp));
      continue;
    }
    const IntegrityItem& b = other.items[j];
    other_used[j] = true;

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
      settle(cmp, crypto::hash_bytes(algorithm_, buf_a),
             crypto::hash_bytes(algorithm_, buf_b),
             buf_a.size() + buf_b.size());
    } else if (memo != nullptr) {
      // Raw-byte item: the match criterion is digest equality of the
      // unmodified extractions, so memoized values are exact.
      cmp.digest_subject = memo->digest(subject.domain, i, a, clock);
      cmp.digest_other = memo->digest(other.domain, j, b, clock);
      cmp.match = cmp.digest_subject == cmp.digest_other;
    } else {
      // Digests stream the spans, so scattered items never flatten.
      settle(cmp, hash_item_content(algorithm_, a),
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

bool IntegrityChecker::decide(const ParsedModule& subject,
                              const ParsedModule& other, SimClock& clock,
                              DigestTable& forms, DecideTally* tally,
                              const DeltaPlan* plan) const {
  clock.charge(costs_.compare_fixed);
  const std::vector<std::size_t> partner = pair_items(subject, other);
  // With every subject item paired, nothing is left over on the other
  // side exactly when the lists have the same length.
  if (subject.items.size() != other.items.size() ||
      std::find(partner.begin(), partner.end(), other.items.size()) !=
          partner.end()) {
    return false;
  }
  // The plan speaks for items at the same index on both sides.
  for (std::size_t i = 0; plan != nullptr && i < partner.size(); ++i) {
    if (partner[i] != i) {
      plan = nullptr;
    }
  }
  DecideTally unused;
  DecideTally& t = tally != nullptr ? *tally : unused;

  for (std::size_t i = 0; i < subject.items.size(); ++i) {
    const std::size_t j = partner[i];
    const IntegrityItem& a = subject.items[i];
    const IntegrityItem& b = other.items[j];
    ++t.items;
    const std::size_t span = std::max(a.content_size(), b.content_size());
    // An rva-sensitive item is charged its adjust and its compare, a raw
    // item its compare, whichever path decides it.
    clock.charge(a.rva_sensitive ? 2 * costs_.rva_scan_per_byte * span
                                 : costs_.rva_scan_per_byte * span);
    if (plan != nullptr) {
      const DeltaPlan::Answer answer =
          plan->decide(i, subject, other, forms, clock, t);
      if (answer == DeltaPlan::Answer::kMatch) {
        continue;
      }
      if (answer == DeltaPlan::Answer::kMismatch) {
        return false;
      }
    }
    ArenaScope scope(scratch_arena());
    ByteView form_a;
    ByteView form_b;
    if (a.rva_sensitive) {
      // compare()'s own Algorithm 2 on the same scratch copies, then one
      // byte compare of the adjusted buffers.
      MutableByteView buf_a = arena_content_copy(scratch_arena(), a);
      MutableByteView buf_b = arena_content_copy(scratch_arena(), b);
      adjust_fixups(buf_a, subject.base, buf_b, other.base, subject.fixups);
      if (simd::equal(buf_a, buf_b)) {
        continue;
      }
      form_a = buf_a;
      form_b = buf_b;
    } else {
      if (item_content_equal(a, b)) {
        continue;
      }
      form_a = flat_content(scratch_arena(), a);
      form_b = flat_content(scratch_arena(), b);
    }
    // Equal bytes have equal digests; differing bytes decide by digest,
    // exactly as compare() does, collisions included.
    if (forms.form_digest(i, form_a, clock) !=
        forms.form_digest(j, form_b, clock)) {
      return false;
    }
  }
  return true;
}

}  // namespace mc::core
