#include "modchecker/canonical.hpp"

#include <algorithm>
#include <utility>

#include "modchecker/item_content.hpp"
#include "modchecker/rva_adjust.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/wordload.hpp"

namespace mc::core {

namespace {

SimNanos hash_charge(const vmi::HostCostModel& costs,
                     crypto::HashAlgorithm algorithm, std::size_t bytes) {
  return static_cast<SimNanos>(static_cast<double>(costs.hash_per_byte * bytes) *
                               digest_cost_factor(algorithm));
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> item_spans(
    const ParsedModule& module) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
  spans.reserve(module.items.size());
  for (const IntegrityItem& a : module.items) {
    spans.emplace_back(a.rva,
                       a.rva + static_cast<std::uint32_t>(a.content_size()));
  }
  return spans;
}

bool span_touched(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& changed,
    std::pair<std::uint32_t, std::uint32_t> span) {
  for (const auto& [lo, hi] : changed) {
    if (lo < span.second && span.first < hi) {
      return true;
    }
  }
  return false;
}

/// Cheap 64-bit fingerprint that buckets DigestTable's forms: four
/// independent multiply-xor lanes over 8-byte words.  Each step is a
/// bijection of the lane, so two inputs differing in one word never
/// collide; any collision only costs a byte compare, never a wrong digest.
std::uint64_t fingerprint(ByteView bytes) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::uint64_t lanes[4] = {1, 2, 3, 4};
  const std::uint8_t* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (std::size_t k = 0; k < 4; ++k) {
      lanes[k] = (lanes[k] ^ load_word64(p + i + 8 * k)) * kMul;
    }
  }
  for (; i + 8 <= n; i += 8) {
    lanes[0] = (lanes[0] ^ load_word64(p + i)) * kMul;
  }
  for (; i < n; ++i) {
    lanes[1] = (lanes[1] ^ p[i]) * kMul;
  }
  std::uint64_t h = 0;
  for (const std::uint64_t lane : lanes) {
    h = ((h << 23) | (h >> 41)) ^ lane;
    h *= kMul;
  }
  return h;
}

}  // namespace

crypto::Digest DigestTable::digest(vmm::DomainId domain, std::size_t index,
                                   const IntegrityItem& item,
                                   SimClock& clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.try_emplace({domain, index});
  if (!inserted) {
    hits_.inc();
    return it->second;
  }
  misses_.inc();
  it->second = hash_item_content(algorithm_, item);
  clock.charge(hash_charge(costs_, algorithm_, item.content_size()));
  return it->second;
}

const crypto::Digest* DigestTable::find_form(const FormKey& key,
                                             ByteView bytes) const {
  const auto it = forms_.find(key);
  if (it == forms_.end()) {
    return nullptr;
  }
  for (const Form& form : it->second) {
    if (simd::equal(form.bytes, bytes)) {
      return &form.digest;
    }
  }
  return nullptr;
}

crypto::Digest DigestTable::form_digest(std::size_t index, ByteView bytes,
                                        SimClock& clock) {
  clock.charge(costs_.rva_scan_per_byte * bytes.size());
  const FormKey key{index, bytes.size(), fingerprint(bytes)};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const crypto::Digest* known = find_form(key, bytes)) {
      return *known;
    }
  }
  // Hash outside the lock.  A concurrent lookup of the same form may hash
  // it too; whichever insert lands first keeps it and alone pays.
  crypto::Digest d = crypto::hash_bytes(algorithm_, bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  if (const crypto::Digest* known = find_form(key, bytes)) {
    return *known;
  }
  forms_[key].push_back({Bytes(bytes.begin(), bytes.end()), d});
  ++form_hashes_;
  clock.charge(hash_charge(costs_, algorithm_, bytes.size()));
  return d;
}

std::uint64_t DigestTable::form_hashes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return form_hashes_;
}

CanonicalPool CanonicalPool::elect(
    const std::vector<const ParsedModule*>& copies, SimClock& clock,
    crypto::HashAlgorithm algorithm, const vmi::HostCostModel& costs,
    telemetry::MetricRegistry* metrics) {
  CanonicalPool first(algorithm, costs, metrics);
  if (copies.empty()) {
    return first;
  }
  std::size_t first_eligible = 0;
  const ParsedModule* challenger = nullptr;
  for (const ParsedModule* copy : copies) {
    first.add(*copy, clock);
    if (first.eligible(copy->domain)) {
      ++first_eligible;
    } else if (challenger == nullptr) {
      challenger = copy;
    }
  }
  // A strict majority reduced against the first copy (every clean pool
  // ends here): no second build.
  if (2 * first_eligible > copies.size()) {
    first.finalize(clock);
    return first;
  }

  // Half or more are ineligible — typically the first copy is the odd one
  // out.  Rebuild once against the first copy that failed to reduce; the
  // rebuild is abandoned the moment its ineligible count rules out beating
  // the first build (a tie keeps the first).
  CanonicalPool second(algorithm, costs, metrics);
  second.add(*challenger, clock);
  std::size_t second_ineligible = 0;
  for (const ParsedModule* copy : copies) {
    if (copy == challenger) {
      continue;
    }
    second.add(*copy, clock);
    if (!second.eligible(copy->domain) &&
        copies.size() - ++second_ineligible <= first_eligible) {
      first.finalize(clock);
      return first;
    }
  }
  second.finalize(clock);
  second.reelected_ = true;
  telemetry::resolve(metrics).counter("canonical.reelections").inc();
  return second;
}

void CanonicalPool::add(const ParsedModule& module, SimClock& clock) {
  MC_CHECK(!finalized_, "CanonicalPool::add after finalize");

  if (reference_ == nullptr) {
    reference_ = &module;
    canonical_.assign(module.items.size(), std::nullopt);
    canonical_bytes_.assign(module.items.size(), Bytes{});
    window_maps_.assign(module.items.size(), std::nullopt);
    Entry entry;
    entry.eligible = true;
    entry.base = module.base;
    entry.spans = item_spans(module);
    entry.digests.resize(module.items.size());
    for (std::size_t i = 0; i < module.items.size(); ++i) {
      entry.ref_items.push_back(i);
    }
    record(module.domain, std::move(entry));
    return;
  }
  record(module.domain, canonicalize(module, clock, nullptr, nullptr));
}

void CanonicalPool::finalize(SimClock& clock) {
  MC_CHECK(reference_ != nullptr, "CanonicalPool::finalize without modules");
  if (finalized_) {
    return;
  }
  ref_digests_.resize(reference_->items.size());
  for (std::size_t i = 0; i < reference_->items.size(); ++i) {
    const IntegrityItem& r = reference_->items[i];
    if (r.rva_sensitive && canonical_[i]) {
      // The reference's canonical digest was already paid for when a
      // differing-base partner established it.
      ref_digests_[i] = *canonical_[i];
    } else {
      ref_digests_[i] = hash_item_content(algorithm_, r);
      charge_hash(clock, r.content_size());
    }
  }
  for (auto& [vm, entry] : entries_) {
    for (const std::size_t i : entry.ref_items) {
      entry.digests[i] = ref_digests_[i];
    }
  }
  finalized_ = true;
}

void CanonicalPool::update(const ParsedModule& module, SimClock& clock,
                           const ByteRanges* changed_rvas) {
  MC_CHECK(finalized_, "CanonicalPool::update before finalize");
  MC_CHECK(reference_ != nullptr && module.domain != reference_->domain,
           "CanonicalPool::update cannot replace the reference");

  // Item-granular reuse is only valid against an eligible previous entry
  // at the same base with a complete span map — anything else recomputes
  // every item honestly.
  const Entry* prev = nullptr;
  if (changed_rvas != nullptr) {
    const auto prev_it = entries_.find(module.domain);
    if (prev_it != entries_.end() && prev_it->second.eligible &&
        prev_it->second.base == module.base &&
        prev_it->second.spans.size() == reference_->items.size()) {
      prev = &prev_it->second;
    }
  }
  record(module.domain, canonicalize(module, clock, prev, changed_rvas));
}

CanonicalPool::Entry CanonicalPool::canonicalize(
    const ParsedModule& module, SimClock& clock, const Entry* prev,
    const ByteRanges* changed_rvas) {
  Entry entry;
  entry.base = module.base;
  entry.spans = item_spans(module);
  entry.digests.resize(reference_->items.size());
  entry.eligible = module.items.size() == reference_->items.size();
  for (std::size_t i = 0; entry.eligible && i < reference_->items.size();
       ++i) {
    const IntegrityItem& r = reference_->items[i];
    const IntegrityItem& a = module.items[i];
    if (a.kind != r.kind || a.name != r.name ||
        a.rva_sensitive != r.rva_sensitive) {
      // Shape mismatch: the slow path's (kind, name) pairing would not be
      // positional — fall back rather than reason about it.
      entry.eligible = false;
      break;
    }
    if (prev != nullptr && prev->spans[i] == entry.spans[i] &&
        !span_touched(*changed_rvas, entry.spans[i])) {
      // An unchanged span that misses every changed byte range holds
      // byte-identical content: its previous digest (and its
      // reference-sharing status) still holds, at zero cost.
      entry.digests[i] = prev->digests[i];
      if (std::find(prev->ref_items.begin(), prev->ref_items.end(), i) !=
          prev->ref_items.end()) {
        entry.ref_items.push_back(i);
      }
      continue;
    }
    entry.eligible = settle_item(i, module, entry, clock);
  }
  return entry;
}

bool CanonicalPool::settle_item(std::size_t i, const ParsedModule& module,
                                Entry& entry, SimClock& clock) {
  const IntegrityItem& r = reference_->items[i];
  const IntegrityItem& a = module.items[i];

  if (!a.rva_sensitive || module.base == reference_->base) {
    // Raw bytes decide: a raw item is matched by the digest of its bytes,
    // and at the reference's own base Algorithm 2 has nothing to adjust.
    // Bytes equal to the reference's share its digest without hashing.
    clock.charge(costs_.rva_scan_per_byte *
                 std::max(a.content_size(), r.content_size()));
    if (item_content_equal(a, r)) {
      hash_skips_.inc();
      entry.ref_items.push_back(i);
      if (finalized_) {
        entry.digests[i] = ref_digests_[i];
      }  // else finalize() back-fills it
      return true;
    }
    if (a.rva_sensitive) {
      return false;  // same base, different bytes: the slow path mismatches
    }
    entry.digests[i] = hash_item_content(algorithm_, a);
    charge_hash(clock, a.content_size());
    return true;
  }

  // Differing base, canonical form known: a copy that is that form
  // relocated at its own base is settled through the recorded windows.
  // Algorithm 2 against the reference would rewrite exactly those windows
  // and leave the canonical bytes (DESIGN §5.1), so the hit is charged the
  // adjust and the compare below that it replaces.
  if (const std::optional<WindowMap>& map = window_maps_[i];
      map && map->usable_for(module.fixups, a.content_size())) {
    if (relocated_content_equal(a, module.fixups, module.base,
                                canonical_bytes_[i], *map)) {
      window_hits_.inc();
      clock.charge(costs_.rva_scan_per_byte *
                   std::max(r.content_size(), a.content_size()));
      clock.charge(costs_.rva_scan_per_byte * a.content_size());
      hash_skips_.inc();
      entry.digests[i] = *canonical_[i];
      return true;
    }
    window_misses_.inc();
  }

  // Otherwise run the paper's pairwise adjustment against the reference
  // on arena scratch copies (recycled per item), recording its windows
  // when it may establish the canonical form.
  ArenaScope scope(scratch_arena());
  MutableByteView ref_copy = arena_content_copy(scratch_arena(), r);
  MutableByteView mod_copy = arena_content_copy(scratch_arena(), a);
  std::vector<FixupWindow> windows;
  adjust_runs_.inc();
  const RvaAdjustResult adj = adjust_fixups(
      ref_copy, reference_->base, mod_copy, module.base, module.fixups,
      simd::Policy::kAuto, canonical_[i] ? nullptr : &windows);
  clock.charge(costs_.rva_scan_per_byte *
               std::max(ref_copy.size(), mod_copy.size()));
  if (adj.unresolved_diffs > 0) {
    return false;
  }
  // Fully resolved: both copies now hold the canonical (RVA-normalized)
  // bytes.  Bytes equal to the ones that established the canonical digest
  // take it without hashing; anything else is digested and must match the
  // first value seen — a copy that resolves against the reference but to
  // *different* canonical bytes is treated as divergent.
  if (canonical_[i]) {
    clock.charge(costs_.rva_scan_per_byte * mod_copy.size());
    if (simd::equal(mod_copy, canonical_bytes_[i])) {
      hash_skips_.inc();
      entry.digests[i] = *canonical_[i];
      return true;
    }
  }
  const crypto::Digest d = crypto::hash_bytes(algorithm_, mod_copy);
  charge_hash(clock, mod_copy.size());
  if (!canonical_[i]) {
    establish_canonical(i, d, mod_copy, module.fixups, windows);
  } else if (*canonical_[i] != d) {
    return false;
  }
  entry.digests[i] = d;
  return true;
}

void CanonicalPool::establish_canonical(
    std::size_t i, const crypto::Digest& d, ByteView bytes,
    const FixupPolicy& fixups, const std::vector<FixupWindow>& windows) {
  canonical_[i] = d;
  canonical_bytes_[i].assign(bytes.begin(), bytes.end());
  window_maps_[i] = WindowMap::from_run(fixups, bytes.size(), windows);
  canonicals_established_.inc();
  if (!finalized_) {
    return;  // finalize() pins the reference to it
  }
  // First differing-base eligible partner arrives after finalize(): re-pin
  // the reference digest and every entry sharing it, keeping vector
  // equality equivalent to the pairwise verdict (the adjusted reference
  // copy IS the canonical form, so no re-hashing of the sharers is owed).
  ref_digests_[i] = d;
  for (auto& [vm, existing] : entries_) {
    if (std::find(existing.ref_items.begin(), existing.ref_items.end(), i) !=
        existing.ref_items.end()) {
      existing.digests[i] = d;
    }
  }
}

void CanonicalPool::charge_hash(SimClock& clock, std::size_t bytes) {
  hashes_.inc();
  clock.charge(hash_charge(costs_, algorithm_, bytes));
}

void CanonicalPool::record(vmm::DomainId vm, Entry entry) {
  if (entry.eligible) {
    eligible_count_.inc();
  } else {
    ineligible_count_.inc();
  }
  entries_[vm] = std::move(entry);
}

bool CanonicalPool::eligible(vmm::DomainId vm) const {
  const auto it = entries_.find(vm);
  return it != entries_.end() && it->second.eligible;
}

vmm::DomainId CanonicalPool::reference_domain() const {
  MC_CHECK(reference_ != nullptr, "CanonicalPool::reference_domain when empty");
  return reference_->domain;
}

const std::vector<crypto::Digest>& CanonicalPool::digests(
    vmm::DomainId vm) const {
  MC_CHECK(finalized_, "CanonicalPool::digests before finalize");
  return entries_.at(vm).digests;
}

}  // namespace mc::core
