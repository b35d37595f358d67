// Digest memoization and canonical-RVA pool normalization.
//
// The paper's pool scan is pairwise: every unordered VM pair re-runs
// Algorithm 2 and re-hashes both module copies, so a t-VM scan does
// O(t^2) full-image work even when all copies are clean — which is the
// common case the scan exists to confirm.  Two observations collapse it
// to O(t):
//
//   1. Items that are NOT rva-sensitive (headers, read-only data) are
//      matched by digest equality of their raw bytes.  The digest of one
//      VM's item never depends on the peer, so it can be computed once per
//      VM and compared t-1 times for free (DigestTable).
//
//   2. rva-sensitive items CAN be normalized against a single reference
//      R.  For any VM X at a different base, run the paper's own pairwise
//      Algorithm 2 on (R, X): if every difference resolves, both
//      post-adjust buffers equal "R with every relocation rewritten to its
//      RVA" — a *canonical form* that is independent of X (each
//      relocation window stores RVA + base, so two honest copies first
//      differ exactly where the bases do; see the eligibility proof in
//      DESIGN.md).  Digest the canonical form once; any two VMs whose
//      copies reduce to the same canonical digest would also match under a
//      direct pairwise comparison, and vice versa.
//
// The argument never assumes R is clean, so R is *elected*
// (CanonicalPool::elect): the first copy, unless half or more of the
// copies fail to reduce against it — then one rebuild against the first
// of those, kept if more copies reduce against it.  One infected first VM
// therefore costs its own t-1 fallback pairs, not all C(t,2).
//
// Eligibility is deliberately conservative — any of the following drops a
// VM to the exact pairwise fallback, reproducing the slow path bit for
// bit: item shape differs from R's, an adjustment leaves unresolved
// diffs, a same-base copy is not byte-identical to R, or a differing-base
// copy resolves to a *different* canonical than the one already
// established (the defense against a crafted copy that spuriously
// resolves against R: it may pair with R, exactly as it would in the slow
// path, but it cannot impersonate the honest majority's canonical).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "crypto/hasher.hpp"
#include "modchecker/rva_adjust.hpp"
#include "modchecker/types.hpp"
#include "util/bytes.hpp"
#include "telemetry/registry.hpp"
#include "util/sim_clock.hpp"
#include "vmi/cost_model.hpp"

namespace mc::core {

/// Relative per-byte cost of the digest algorithms (MD5 = 1.0); roughly
/// the OpenSSL-era software throughput ratios.
constexpr double digest_cost_factor(crypto::HashAlgorithm algorithm) {
  switch (algorithm) {
    case crypto::HashAlgorithm::kMd5:
      return 1.0;
    case crypto::HashAlgorithm::kSha1:
      return 1.4;
    case crypto::HashAlgorithm::kSha256:
      return 2.3;
  }
  return 1.0;
}

/// Memo of digests for one scan operation, in two kinds of entry:
///
///   * raw-byte digests keyed by (domain, the item's index in
///     ParsedModule::items) — check_module's subject memo;
///   * content-verified *forms* keyed by (item index, the bytes
///     themselves) — the pool scan's exact fallback, which digests an item
///     only when a pair's bytes differ and meets the same form (typically
///     an infected copy's adjusted item) against every peer.
///
/// Never keyed by the item's name, which the guest controls: two sections
/// sharing a name must not share a digest.  Item bytes are re-extracted on
/// the next scan and may have changed, so entries must not outlive the
/// extractions they were computed from.  Thread-safe; a miss charges the
/// hashing cost to the *caller's* clock, a hit charges no hash (the work
/// truly happened once).
class DigestTable {
 public:
  /// `metrics` backs the hit/miss counters ("digest_memo.*"; null = the
  /// process default registry).
  DigestTable(crypto::HashAlgorithm algorithm, const vmi::HostCostModel& costs,
              telemetry::MetricRegistry* metrics = nullptr)
      : algorithm_(algorithm), costs_(costs) {
    telemetry::MetricRegistry& reg = telemetry::resolve(metrics);
    hits_ = reg.owned_counter("digest_memo.hits");
    misses_ = reg.owned_counter("digest_memo.misses");
  }

  /// Digest of the raw bytes of `item`, which is item `index` of
  /// `domain`'s parsed copy (memoized).
  crypto::Digest digest(vmm::DomainId domain, std::size_t index,
                        const IntegrityItem& item, SimClock& clock);

  /// Digest of `bytes`, item `index`'s content as a pairwise compare sees
  /// it (raw, or after Algorithm 2).  A stored digest is returned only
  /// after a byte-for-byte equality check, so each distinct form is hashed
  /// once per table however many pairs meet it.  Charges `clock` one byte
  /// compare per lookup, however many entries it scans, plus one hash
  /// when this call's insert wins — so the total charged over any set of
  /// lookups does not depend on their order or interleaving.
  crypto::Digest form_digest(std::size_t index, ByteView bytes,
                             SimClock& clock);

  /// Distinct forms form_digest() has hashed.
  std::uint64_t form_hashes() const;

 private:
  /// One owned copy per distinct form: the bytes its digest is verified
  /// against (a few items per scan, only where copies differ).
  struct Form {
    Bytes bytes;  // mc-lint: allow(hotpath-copy)
    crypto::Digest digest;
  };
  /// (item index, size, fingerprint): a bucket holds more than one form
  /// only on a fingerprint collision, so lookups stay O(1) when every
  /// copy differs.
  using FormKey = std::tuple<std::size_t, std::size_t, std::uint64_t>;

  /// The stored digest of exactly `bytes` under `key`, or null.  Caller
  /// holds mutex_.
  const crypto::Digest* find_form(const FormKey& key, ByteView bytes) const;

  crypto::HashAlgorithm algorithm_;
  vmi::HostCostModel costs_;
  mutable std::mutex mutex_;
  std::map<std::pair<vmm::DomainId, std::size_t>, crypto::Digest> entries_;
  std::map<FormKey, std::vector<Form>> forms_;
  std::uint64_t form_hashes_ = 0;
  telemetry::OwnedCounter hits_;
  telemetry::OwnedCounter misses_;
};

/// Normalizes a pool of parsed copies of ONE module against a reference
/// (the copy elect() picked by majority; the first module add()ed when
/// the pool is built by hand) and assigns each eligible VM a per-item
/// digest vector such that, for any two eligible VMs, vector equality is
/// equivalent to the slow pairwise comparison's all_match verdict.
///
/// Bytes are compared before they are hashed: a copy whose item bytes
/// equal the reference's (raw items, same-base rva-sensitive items) or,
/// after Algorithm 2, equal the bytes that established the item's
/// canonical digest takes that digest without an MD5 pass.  Equal bytes
/// have equal digests and unequal bytes are hashed as before, so the
/// vectors are exactly what hashing every copy would give; a clean pool
/// runs one hash per item ("canonical.hashes"; byte-compare settlements
/// count "canonical.hash_skips").  The price is one owned copy of each
/// established canonical form — about one image per pool.
///
/// Algorithm 2 runs once per rva-sensitive item, too: the run that
/// establishes an item's canonical form records the windows it rewrote
/// (WindowMap), and a later differing-base copy that is the canonical
/// form relocated at its own base is settled by one pass over its spans
/// (relocated_content_equal) instead of scratch copies and another run.
/// Only a copy that fails the pass runs Algorithm 2, so every negative
/// outcome is decided exactly as before.  A map hit is charged the adjust
/// and the compare it replaces ("canonical.adjust_runs" counts real runs,
/// "canonical.window_hits"/"window_misses" the map's outcomes).
///
/// Usage: elect() over every successfully parsed copy, then query
/// eligible()/digests().  Added modules must outlive the pool (the
/// reference's item bytes are borrowed).  Single-threaded by design:
/// canonicalization is the O(t) part and runs on the orchestrator's clock.
class CanonicalPool {
 public:
  /// [lo, hi) image-relative byte ranges.
  using ByteRanges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  /// Builds and finalizes the pool over `copies` (pool order, all parsed)
  /// with a majority-elected reference: the first copy, unless half or
  /// more of the copies are ineligible against it — then the pool is
  /// rebuilt once against the first ineligible copy and the build with
  /// more eligible copies is kept (the first on a tie).  The rebuild stops
  /// as soon as it can no longer overtake the first build.  Clean pools
  /// pay nothing extra; a rebuild counts "canonical.reelections".  An
  /// empty `copies` yields an empty, unfinalized pool (nothing eligible).
  static CanonicalPool elect(const std::vector<const ParsedModule*>& copies,
                             SimClock& clock, crypto::HashAlgorithm algorithm,
                             const vmi::HostCostModel& costs,
                             telemetry::MetricRegistry* metrics = nullptr);

  /// `metrics` backs the eligibility counters ("canonical.*"; null = the
  /// process default registry).
  CanonicalPool(crypto::HashAlgorithm algorithm,
                const vmi::HostCostModel& costs,
                telemetry::MetricRegistry* metrics = nullptr)
      : algorithm_(algorithm), costs_(costs) {
    telemetry::MetricRegistry& reg = telemetry::resolve(metrics);
    eligible_count_ = reg.owned_counter("canonical.eligible");
    ineligible_count_ = reg.owned_counter("canonical.ineligible");
    canonicals_established_ =
        reg.owned_counter("canonical.canonicals_established");
    hashes_ = reg.owned_counter("canonical.hashes");
    hash_skips_ = reg.owned_counter("canonical.hash_skips");
    adjust_runs_ = reg.owned_counter("canonical.adjust_runs");
    window_hits_ = reg.owned_counter("canonical.window_hits");
    window_misses_ = reg.owned_counter("canonical.window_misses");
  }

  /// Canonicalizes one VM's copy, charging adjustment/hashing time to
  /// `clock`.  The first module added becomes the reference.
  void add(const ParsedModule& module, SimClock& clock);

  /// Resolves the reference's own digest vector (canonical digests where
  /// established, raw digests elsewhere) and back-fills every same-base
  /// entry that shares it.  Call after the last add().
  void finalize(SimClock& clock);

  /// Post-finalize re-canonicalization of ONE VM's copy — the scan
  /// cache's partial-refresh hook (NormalizeStage::normalize).  Replaces (or inserts) the VM's
  /// entry, charging only this copy's adjustment/hashing to `clock`; the
  /// unchanged members keep their vectors, so a pool whose reference is
  /// stable re-normalizes O(changed copies) instead of O(t) per tick.
  /// The reference module must be unchanged (callers rebuild the pool when
  /// it is not) and the updated VM must not be the reference.  If this
  /// copy establishes an item's canonical digest (first differing-base
  /// eligible partner the pool has seen), the reference digest vector and
  /// every entry sharing it are re-pinned to the canonical value —
  /// digest-vector equality stays equivalent to the pairwise verdict.
  ///
  /// `changed_rvas` (optional) are the [lo, hi) image-relative byte
  /// ranges known to cover EVERY byte that changed since this VM's
  /// previous entry (the scan cache's dirty-page mask).  Items
  /// whose span misses every range — and whose span matched last time —
  /// reuse the previous entry's digest for free: their bytes are
  /// untouched, and any fixup-table change implies some overlapping
  /// item's bytes changed, which re-canonicalizes honestly and decides
  /// the pair either way.  Null (or a base/shape change) recomputes all.
  void update(const ParsedModule& module, SimClock& clock,
              const ByteRanges* changed_rvas = nullptr);

  /// True if `vm` was added and reduced cleanly to the canonical form.
  bool eligible(vmm::DomainId vm) const;

  /// True until the first add() (elect() over no copies).
  bool empty() const { return reference_ == nullptr; }

  /// The reference copy's domain (requires !empty()).
  vmm::DomainId reference_domain() const;

  /// True when elect() kept the rebuild, i.e. the reference is not the
  /// first copy.
  bool reelected() const { return reelected_; }

  /// Post-finalize: per-item digests in reference item order.  Two
  /// eligible VMs' modules pairwise-match iff their vectors are equal.
  const std::vector<crypto::Digest>& digests(vmm::DomainId vm) const;

 private:
  struct Entry {
    bool eligible = false;
    /// Load base the entry was canonicalized at (update()'s reuse guard).
    std::uint32_t base = 0;
    std::vector<crypto::Digest> digests;
    /// Items whose digest equals the reference's (resolved in finalize()).
    std::vector<std::size_t> ref_items;
    /// Per-item [rva, rva + content_size) spans at canonicalization time:
    /// update() reuses digests[i] only when spans[i] is unchanged AND
    /// misses every changed byte range.
    ByteRanges spans;
  };

  /// Canonicalizes a non-reference copy into a fresh entry, reusing
  /// `prev`'s digests for items untouched by `changed_rvas` (both null =
  /// recompute every item).
  Entry canonicalize(const ParsedModule& module, SimClock& clock,
                     const Entry* prev, const ByteRanges* changed_rvas);
  /// Settles item `i` of `module` into `entry`; false = ineligible.
  bool settle_item(std::size_t i, const ParsedModule& module, Entry& entry,
                   SimClock& clock);
  /// Pins item `i`'s canonical digest and keeps the bytes it came from
  /// and the map of the run that produced them (under `fixups`);
  /// post-finalize, re-pins the reference and every entry sharing it.
  void establish_canonical(std::size_t i, const crypto::Digest& d,
                           ByteView bytes, const FixupPolicy& fixups,
                           const std::vector<FixupWindow>& windows);
  /// Counts one hash pass and charges it to `clock`.
  void charge_hash(SimClock& clock, std::size_t bytes);
  /// Stores `entry` for `vm` and bumps the eligibility counters.
  void record(vmm::DomainId vm, Entry entry);

  crypto::HashAlgorithm algorithm_;
  vmi::HostCostModel costs_;

  const ParsedModule* reference_ = nullptr;
  /// Per reference item: canonical digest established by the first
  /// differing-base eligible partner (rva-sensitive items only).
  std::vector<std::optional<crypto::Digest>> canonical_;
  /// The post-Algorithm-2 bytes canonical_[i] was digested from; later
  /// copies that reduce to them take canonical_[i] without hashing.
  std::vector<Bytes> canonical_bytes_;
  /// The windows of the Algorithm 2 run that produced canonical_bytes_[i];
  /// nullopt until established, or when that run cannot be replayed.
  std::vector<std::optional<WindowMap>> window_maps_;
  std::vector<crypto::Digest> ref_digests_;  // valid after finalize()
  bool finalized_ = false;
  bool reelected_ = false;

  std::map<vmm::DomainId, Entry> entries_;
  telemetry::OwnedCounter eligible_count_;
  telemetry::OwnedCounter ineligible_count_;
  telemetry::OwnedCounter canonicals_established_;
  telemetry::OwnedCounter hashes_;
  telemetry::OwnedCounter hash_skips_;
  telemetry::OwnedCounter adjust_runs_;
  telemetry::OwnedCounter window_hits_;
  telemetry::OwnedCounter window_misses_;
};

}  // namespace mc::core
