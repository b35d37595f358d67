#include "modchecker/canonical.hpp"

#include <algorithm>
#include <memory>
#include <type_traits>
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

/// DigestTable's per-word bucket term: a bijection of the word for each
/// position, so two contents differing in one word never collide.
constexpr std::uint64_t kPositionMul = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kWordMul = 0xD6E8FEB86659FD93ull;

std::uint64_t word_term(std::uint64_t position_key, std::uint64_t word) {
  return (word ^ position_key) * kWordMul;
}

/// Word `k` of `bytes`, zero-padded past the end.
std::uint64_t padded_word(ByteView bytes, std::size_t k) {
  std::uint8_t word[8] = {};
  for (std::size_t b = 0; b < 8 && 8 * k + b < bytes.size(); ++b) {
    word[b] = bytes[8 * k + b];
  }
  return load_word64(word);
}

/// DigestTable::fingerprint of the content `form` describes: its base's,
/// corrected word by word where the runs land.
std::uint64_t patched_fingerprint(const PatchedForm& form) {
  std::uint64_t h = form.base_fingerprint;
  constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t k = kNone;
  std::uint8_t word[8] = {};
  const auto flush = [&] {
    if (k != kNone) {
      h += word_term(k * kPositionMul, load_word64(word)) -
           word_term(k * kPositionMul, padded_word(form.base, k));
    }
  };
  std::size_t from = 0;
  for (const auto& [lo, hi] : form.spans) {
    for (std::size_t q = lo; q < hi; ++q) {
      if (q / 8 != k) {
        flush();
        k = q / 8;
        for (std::size_t b = 0; b < 8; ++b) {
          word[b] = 8 * k + b < form.base.size() ? form.base[8 * k + b] : 0;
        }
      }
      word[q % 8] = form.bytes[from + (q - lo)];
    }
    from += hi - lo;
  }
  flush();
  return h;
}

/// The content `form` describes, in order, as borrowed pieces.
std::vector<ByteView> pieces_of(const PatchedForm& form) {
  std::vector<ByteView> pieces;
  std::size_t pos = 0;
  std::size_t from = 0;
  for (const auto& [lo, hi] : form.spans) {
    if (lo > pos) {
      pieces.push_back(form.base.subspan(pos, lo - pos));
    }
    pieces.push_back(ByteView(form.bytes).subspan(from, hi - lo));
    from += hi - lo;
    pos = hi;
  }
  if (pos < form.base.size()) {
    pieces.push_back(form.base.subspan(pos));
  }
  return pieces;
}

/// Appends the maximal runs at which `actual` differs from `expected`
/// (content offset `pos`) to `form`, with their bytes.
void append_runs(PatchedForm& form, ByteView actual, ByteView expected,
                 std::size_t pos) {
  constexpr DiffCap kUncapped{~std::size_t{0}, ~std::size_t{0}};
  ByteSpans runs;
  std::size_t bytes = 0;
  append_diff_runs(actual, expected, pos, kUncapped, bytes, runs);
  for (const auto& [lo, hi] : runs) {
    if (!form.spans.empty() && form.spans.back().second == lo) {
      form.spans.back().second = hi;
    } else {
      form.spans.emplace_back(lo, hi);
    }
    form.bytes.insert(form.bytes.end(),
                      actual.begin() + static_cast<std::ptrdiff_t>(lo - pos),
                      actual.begin() + static_cast<std::ptrdiff_t>(hi - pos));
  }
}

/// The patched copy's bytes at its runs.
Bytes run_bytes(const IntegrityItem& item, const ByteSpans& spans) {
  std::size_t total = 0;
  for (const auto& [lo, hi] : spans) {
    total += hi - lo;
  }
  Bytes bytes(total);
  std::size_t at = 0;
  for (const auto& [lo, hi] : spans) {
    item.view.read_into(lo, MutableByteView(bytes).subspan(at, hi - lo));
    at += hi - lo;
  }
  return bytes;
}

/// How much a copy may differ from C and still be planned: far more than
/// an inline hook or a patched word, far less than an image.
constexpr DiffCap kDeltaCap{512, 32};

/// Bytes past a group of runs that Algorithm 2 may use to resynchronise
/// before the delta fallback gives the item back to the per-item code.
constexpr std::size_t kResyncTail = 128;

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

std::uint64_t DigestTable::fingerprint(ByteView bytes) {
  std::uint64_t h = 0;
  const std::size_t words = bytes.size() / 8;
  std::uint64_t position_key = 0;
  for (std::size_t k = 0; k < words; ++k, position_key += kPositionMul) {
    h += word_term(position_key, load_word64(bytes.data() + 8 * k));
  }
  if (bytes.size() % 8 != 0) {
    h += word_term(position_key, padded_word(bytes, words));
  }
  return h;
}

namespace {

bool form_matches(const Bytes& owned, const std::optional<PatchedForm>& stored,
                  ByteView query) {
  return stored ? spans_equal(pieces_of(*stored), std::span(&query, 1))
                : simd::equal(owned, query);
}

bool form_matches(const Bytes& owned, const std::optional<PatchedForm>& stored,
                  const PatchedForm& query) {
  if (!stored) {
    const ByteView flat(owned);
    return spans_equal(std::span(&flat, 1), pieces_of(query));
  }
  if (stored->base.data() == query.base.data() &&
      stored->base.size() == query.base.size()) {
    // Runs are maximal, so over one base equal content has equal runs.
    return stored->spans == query.spans && stored->bytes == query.bytes;
  }
  return spans_equal(pieces_of(*stored), pieces_of(query));
}

}  // namespace

template <typename Query>
DigestTable::Form* DigestTable::find_form(const FormKey& key,
                                          const Query& query) {
  const auto it = forms_.find(key);
  if (it == forms_.end()) {
    return nullptr;
  }
  for (Form& form : it->second) {
    if (form_matches(form.bytes, form.patched, query)) {
      return &form;
    }
  }
  return nullptr;
}

const crypto::Digest& DigestTable::meet(Form& form, std::size_t size,
                                        SimClock& clock) {
  if (!form.counted) {
    form.counted = true;
    ++form_hashes_;
    clock.charge(hash_charge(costs_, algorithm_, size));
  }
  return form.digest;
}

void DigestTable::seed_form(std::size_t index, const PatchedForm& form,
                            const crypto::Digest& digest) {
  const FormKey key{index, form.base.size(), patched_fingerprint(form)};
  std::lock_guard<std::mutex> lock(mutex_);
  if (find_form(key, form) == nullptr) {
    forms_[key].push_back({{}, form, digest, false});
  }
}

template <typename Query, typename Hash>
crypto::Digest DigestTable::lookup(const FormKey& key, const Query& query,
                                   std::size_t size, SimClock& clock,
                                   Hash&& hash) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Form* known = find_form(key, query)) {
      return meet(*known, size, clock);
    }
  }
  // Hash outside the lock.  A concurrent lookup of the same form may hash
  // it too; whichever insert lands first keeps it and alone pays.
  crypto::Digest d = hash();
  std::lock_guard<std::mutex> lock(mutex_);
  if (Form* known = find_form(key, query)) {
    return meet(*known, size, clock);
  }
  Form form;
  if constexpr (std::is_same_v<Query, PatchedForm>) {
    form.patched = query;
  } else {
    form.bytes.assign(query.begin(), query.end());
  }
  form.digest = d;
  forms_[key].push_back(std::move(form));
  ++form_hashes_;
  clock.charge(hash_charge(costs_, algorithm_, size));
  return d;
}

crypto::Digest DigestTable::form_digest(std::size_t index, ByteView bytes,
                                        SimClock& clock) {
  clock.charge(costs_.rva_scan_per_byte * bytes.size());
  return lookup(FormKey{index, bytes.size(), fingerprint(bytes)}, bytes,
                bytes.size(), clock,
                [&] { return crypto::hash_bytes(algorithm_, bytes); });
}

crypto::Digest DigestTable::form_digest(std::size_t index,
                                        const PatchedForm& form,
                                        SimClock& clock) {
  const std::size_t size = form.base.size();
  clock.charge(costs_.rva_scan_per_byte * size);
  return lookup(FormKey{index, size, patched_fingerprint(form)}, form, size,
                clock, [&] {
                  const std::unique_ptr<crypto::Hasher> hasher =
                      crypto::make_hasher(algorithm_);
                  for (const ByteView piece : pieces_of(form)) {
                    hasher->update(piece);
                  }
                  return hasher->finish();
                });
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
    entry.relocated.assign(module.items.size(), 1);
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
  entry.relocated.assign(reference_->items.size(), 0);
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
      entry.relocated[i] = prev->relocated[i];
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
      hash_skips_.inc_single_writer();
      entry.relocated[i] = 1;
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
      window_hits_.inc_single_writer();
      clock.charge(costs_.rva_scan_per_byte *
                   std::max(r.content_size(), a.content_size()));
      clock.charge(costs_.rva_scan_per_byte * a.content_size());
      hash_skips_.inc_single_writer();
      entry.relocated[i] = 1;
      entry.digests[i] = *canonical_[i];
      return true;
    }
    window_misses_.inc_single_writer();
  }

  // Otherwise run the paper's pairwise adjustment against the reference
  // on arena scratch copies (recycled per item), recording its windows
  // when it may establish the canonical form.
  ArenaScope scope(scratch_arena());
  MutableByteView ref_copy = arena_content_copy(scratch_arena(), r);
  MutableByteView mod_copy = arena_content_copy(scratch_arena(), a);
  std::vector<FixupWindow> windows;
  adjust_runs_.inc_single_writer();
  const RvaAdjustResult adj = adjust_fixups(
      ref_copy, reference_->base, mod_copy, module.base, module.fixups,
      canonical_[i] ? nullptr : &windows);
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
      hash_skips_.inc_single_writer();
      entry.digests[i] = *canonical_[i];
      return true;
    }
  }
  const crypto::Digest d = crypto::hash_bytes(algorithm_, mod_copy);
  charge_hash(clock, mod_copy.size());
  if (!canonical_[i]) {
    // The run that establishes C leaves this copy as C relocated at its
    // base through the recorded windows.
    establish_canonical(i, d, mod_copy, module.fixups, windows);
    entry.relocated[i] = 1;
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
  canonicals_established_.inc_single_writer();
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
  hashes_.inc_single_writer();
  clock.charge(hash_charge(costs_, algorithm_, bytes));
}

void CanonicalPool::record(vmm::DomainId vm, Entry entry) {
  if (entry.eligible) {
    eligible_count_.inc_single_writer();
  } else {
    ineligible_count_.inc_single_writer();
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

DeltaPlan CanonicalPool::plan_fallback(
    const std::vector<const ParsedModule*>& patched) const {
  MC_CHECK(finalized_, "CanonicalPool::plan_fallback before finalize");
  DeltaPlan plan;
  plan.algorithm_ = algorithm_;
  const std::size_t n = reference_->items.size();
  plan.items_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const IntegrityItem& r = reference_->items[i];
    DeltaPlan::Item& item = plan.items_[i];
    if (r.rva_sensitive) {
      if (canonical_[i] && window_maps_[i]) {
        item.canonical = canonical_bytes_[i];
        item.map = &*window_maps_[i];
      }
    } else if (r.view.contiguous()) {
      item.canonical = r.view.as_contiguous();
    } else {
      Bytes flat(r.content_size());
      r.copy_content(MutableByteView(flat));
      plan.flat_.push_back(std::move(flat));
      item.canonical = plan.flat_.back();
    }
  }
  for (const auto& [vm, entry] : entries_) {
    if (!entry.eligible) {
      continue;
    }
    std::vector<ItemDelta>& deltas = plan.copies_[vm];
    deltas.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (entry.relocated[i] != 0) {
        deltas[i].kind = ItemDelta::Kind::kRelocated;
      }
    }
  }
  for (const ParsedModule* copy : patched) {
    std::vector<ItemDelta>& deltas = plan.copies_[copy->domain];
    deltas.assign(n, ItemDelta{});
    for (std::size_t i = 0; i < n; ++i) {
      ItemDelta& d = deltas[i];
      d.why = DeltaRefusal::kNoMap;
      if (copy->items.size() != n) {
        continue;
      }
      const IntegrityItem& r = reference_->items[i];
      const IntegrityItem& a = copy->items[i];
      const DeltaPlan::Item& item = plan.items_[i];
      if (a.kind != r.kind || a.name != r.name ||
          a.rva_sensitive != r.rva_sensitive) {
        continue;
      }
      bool within = false;
      if (r.rva_sensitive) {
        if (item.map == nullptr ||
            !item.map->usable_for(copy->fixups, a.content_size())) {
          continue;
        }
        within = relocated_diff(a, copy->fixups, copy->base, item.canonical,
                                *item.map, kDeltaCap, d.spans);
      } else {
        if (a.content_size() != item.canonical.size()) {
          continue;
        }
        within = content_diff(a, item.canonical, kDeltaCap, d.spans);
      }
      if (!within) {
        d.why = DeltaRefusal::kOverCap;
        d.spans.clear();
        continue;
      }
      d.kind = d.spans.empty() ? ItemDelta::Kind::kRelocated
                               : ItemDelta::Kind::kPatched;
      if (d.kind == ItemDelta::Kind::kPatched && !plan.items_[i].digest) {
        plan.items_[i].fingerprint = DigestTable::fingerprint(item.canonical);
        plan.items_[i].digest = r.rva_sensitive ? *canonical_[i]
                                                : ref_digests_[i];
      }
    }
  }
  return plan;
}

const char* delta_refusal_name(DeltaRefusal why) {
  switch (why) {
    case DeltaRefusal::kOverCap:
      return "over_cap";
    case DeltaRefusal::kNoMap:
      return "no_map";
    case DeltaRefusal::kUnsettled:
      return "unsettled";
    case DeltaRefusal::kSameBase:
      return "same_base";
    case DeltaRefusal::kUnsynced:
      return "unsynced";
  }
  return "unknown";
}

void DeltaPlan::seed(DigestTable& forms) const {
  for (std::size_t i = 0;
       forms.algorithm() == algorithm_ && i < items_.size(); ++i) {
    if (items_[i].digest) {
      forms.seed_form(i, {items_[i].canonical, items_[i].fingerprint, {}, {}},
                      *items_[i].digest);
    }
  }
}

const ItemDelta* DeltaPlan::delta(vmm::DomainId vm, std::size_t i) const {
  const auto it = copies_.find(vm);
  return it == copies_.end() || i >= it->second.size() ? nullptr
                                                      : &it->second[i];
}

DeltaPlan::Answer DeltaPlan::decide(std::size_t i, const ParsedModule& a,
                                    const ParsedModule& b, DigestTable& forms,
                                    SimClock& clock,
                                    DecideTally& tally) const {
  using Kind = ItemDelta::Kind;
  const ItemDelta* da = delta(a.domain, i);
  const ItemDelta* db = delta(b.domain, i);
  Answer answer = Answer::kRefused;
  DeltaRefusal why = DeltaRefusal::kNoMap;
  if (da == nullptr || db == nullptr || i >= items_.size()) {
    why = DeltaRefusal::kNoMap;
  } else if (da->kind == Kind::kUnknown || db->kind == Kind::kUnknown) {
    why = da->kind == Kind::kUnknown ? da->why : db->why;
  } else if (da->kind == Kind::kPatched && db->kind == Kind::kPatched) {
    why = DeltaRefusal::kUnsettled;
  } else {
    const Item& item = items_[i];
    const IntegrityItem& ia = a.items[i];
    const IntegrityItem& ib = b.items[i];
    const bool rva = ia.rva_sensitive;
    const bool lines_up =
        ib.rva_sensitive == rva &&
        (rva ? item.map != nullptr && a.fixups == b.fixups &&
                   item.map->usable_for(a.fixups, ia.content_size()) &&
                   item.map->usable_for(b.fixups, ib.content_size())
             : ia.content_size() == item.canonical.size() &&
                   ib.content_size() == item.canonical.size());
    if (!lines_up) {
      why = DeltaRefusal::kNoMap;
    } else if (da->kind == Kind::kRelocated && db->kind == Kind::kRelocated) {
      // Both are C relocated at their bases: equal bytes at equal bases,
      // and C on both sides after Algorithm 2 at distinct ones (DESIGN
      // §5.1, the map argument for any two bases).
      answer = Answer::kMatch;
    } else if (!rva) {
      // Raw bytes decide: one side is C, the other C patched at its runs.
      const bool a_patched = da->kind == Kind::kPatched;
      const ItemDelta& d = a_patched ? *da : *db;
      PatchedForm patched{item.canonical, item.fingerprint, d.spans,
                          run_bytes(a_patched ? ia : ib, d.spans)};
      const PatchedForm plain{item.canonical, item.fingerprint, {}, {}};
      answer = forms.form_digest(i, a_patched ? patched : plain, clock) !=
                       forms.form_digest(i, a_patched ? plain : patched, clock)
                   ? Answer::kMismatch
                   : Answer::kMatch;
    } else if (a.base == b.base) {
      why = DeltaRefusal::kSameBase;
    } else {
      answer = decide_relocated(i, a, b, *da, *db, forms, clock, why);
    }
  }
  if (answer == Answer::kRefused) {
    ++tally.refusals[static_cast<std::size_t>(why)];
  } else {
    ++tally.delta_items;
  }
  return answer;
}

DeltaPlan::Answer DeltaPlan::decide_relocated(
    std::size_t i, const ParsedModule& a, const ParsedModule& b,
    const ItemDelta& da, const ItemDelta& db, DigestTable& forms,
    SimClock& clock, DeltaRefusal& why) const {
  const Item& item = items_[i];
  const FixupPolicy& policy = a.fixups;
  const std::vector<std::uint32_t>& starts = item.map->starts();
  const std::size_t width = policy.width;
  const ByteView c = item.canonical;
  const std::size_t n = c.size();
  const ByteSpans& runs =
      (da.kind == ItemDelta::Kind::kPatched ? da : db).spans;

  // The end of the last window that ends at or before `at` (0 if none):
  // the full run reaches it exactly as it would on two copies that are
  // both C relocated, so its scan can be resumed there.
  const auto sync_in = [&](std::size_t at) -> std::size_t {
    if (at < width) {
      return 0;
    }
    const auto it = std::upper_bound(starts.begin(), starts.end(), at - width);
    return it == starts.begin() ? 0 : *(it - 1) + width;
  };

  // Each side's adjusted item: C, plus the runs where it differs from C.
  PatchedForm fa{c, item.fingerprint, {}, {}};
  PatchedForm fb{c, item.fingerprint, {}, {}};
  bool equal = true;
  ArenaScope scope(scratch_arena());
  for (std::size_t k = 0; k < runs.size();) {
    // One group: runs whose resumption points fall inside the previous
    // run's slice share one resumed scan.
    const std::size_t from = sync_in(runs[k].first);
    std::size_t until = runs[k].second;
    std::size_t end = std::min(n, until + kResyncTail);
    for (++k; k < runs.size() && sync_in(runs[k].first) < end + 3; ++k) {
      until = runs[k].second;
      end = std::min(n, until + kResyncTail);
    }
    // The scan may look back up to three bytes before `from` for a
    // candidate window; there both sides already hold C.
    const std::size_t origin = from - std::min<std::size_t>(from, 3);
    const std::size_t len = end - origin;
    const MutableByteView la = scratch_arena().alloc(len);
    const MutableByteView lb = scratch_arena().alloc(len);
    const ByteView prefix = c.subspan(origin, from - origin);
    copy_bytes(la, prefix);
    copy_bytes(lb, prefix);
    a.items[i].view.read_into(from, la.subspan(from - origin));
    b.items[i].view.read_into(from, lb.subspan(from - origin));
    const ResumedRun run = adjust_fixups_resumed(
        la, a.base, lb, b.base, policy, origin, n, from, until, starts);
    if (!run.synced) {
      why = DeltaRefusal::kUnsynced;
      return Answer::kRefused;
    }
    // Past the stop both runs rewrite every window to C again.
    const std::size_t out = run.stop - origin;
    equal = equal && simd::equal(la.first(out), lb.first(out));
    append_runs(fa, la.first(out), c.subspan(origin, out), origin);
    append_runs(fb, lb.first(out), c.subspan(origin, out), origin);
  }
  if (equal) {
    return Answer::kMatch;
  }
  return forms.form_digest(i, fa, clock) != forms.form_digest(i, fb, clock)
             ? Answer::kMismatch
             : Answer::kMatch;
}

}  // namespace mc::core
