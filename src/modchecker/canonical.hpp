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

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "crypto/hasher.hpp"
#include "modchecker/item_content.hpp"
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

/// An item's content given as a borrowed `base` with some byte runs
/// replaced: each [lo, hi) of `spans` (ascending, disjoint, and each a
/// maximal run at which the content differs from `base`) takes its bytes,
/// in order, from `bytes`.  The delta fallback's form of an adjusted item:
/// the canonical form plus the bytes where the adjusted copy differs.
struct PatchedForm {
  ByteView base;
  /// DigestTable::fingerprint(base).
  std::uint64_t base_fingerprint = 0;
  ByteSpans spans;
  Bytes bytes;  // mc-lint: allow(hotpath-copy)
};

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

  /// form_digest of the content `form` describes, without laying it out:
  /// the same forms, digests, charges (by the content's full size) and
  /// form_hashes() as the flat call, for O(patched bytes) work per lookup
  /// when `form` meets a form of the same base.  `form.base` must outlive
  /// the table.
  crypto::Digest form_digest(std::size_t index, const PatchedForm& form,
                             SimClock& clock);

  /// Records `digest` as the digest of the content `form` describes (a
  /// digest the caller already holds).  The first lookup that meets the
  /// form counts and is charged as the hash that established it, so
  /// form_hashes() and the charges are what they would be unseeded.
  void seed_form(std::size_t index, const PatchedForm& form,
                 const crypto::Digest& digest);

  /// Distinct forms form_digest() has hashed.
  std::uint64_t form_hashes() const;

  crypto::HashAlgorithm algorithm() const { return algorithm_; }

  /// The bucket fingerprint of `bytes`: a sum over its 8-byte words of a
  /// per-position bijection, so a PatchedForm's follows from its base's
  /// in O(patched bytes).
  static std::uint64_t fingerprint(ByteView bytes);

 private:
  /// One copy per distinct form, the content its digest is verified
  /// against (a few items per scan, only where copies differ): owned
  /// bytes, or a patched form over a borrowed base.
  struct Form {
    Bytes bytes;  // mc-lint: allow(hotpath-copy)
    std::optional<PatchedForm> patched;
    crypto::Digest digest;
    /// False for a seeded form no lookup has met yet.
    bool counted = true;
  };
  /// (item index, size, fingerprint): a bucket holds more than one form
  /// only on a fingerprint collision, so lookups stay O(1) when every
  /// copy differs.
  using FormKey = std::tuple<std::size_t, std::size_t, std::uint64_t>;

  /// The stored digest of exactly the content `query` names under `key`,
  /// or null.  Caller holds mutex_.
  template <typename Query>
  Form* find_form(const FormKey& key, const Query& query);
  /// The digest of a form found by a lookup, counting and charging a
  /// seeded form on its first meeting.  Caller holds mutex_.
  const crypto::Digest& meet(Form& form, std::size_t size, SimClock& clock);
  /// Looks `query` up under `key`, hashing and inserting it on a miss.
  template <typename Query, typename Hash>
  crypto::Digest lookup(const FormKey& key, const Query& query,
                        std::size_t size, SimClock& clock, Hash&& hash);

  crypto::HashAlgorithm algorithm_;
  vmi::HostCostModel costs_;
  mutable std::mutex mutex_;
  std::map<std::pair<vmm::DomainId, std::size_t>, crypto::Digest> entries_;
  std::map<FormKey, std::vector<Form>> forms_;
  std::uint64_t form_hashes_ = 0;
  telemetry::OwnedCounter hits_;
  telemetry::OwnedCounter misses_;
};

/// Why the delta fallback left an item to the per-item code.
enum class DeltaRefusal : std::uint8_t {
  kOverCap,    // the copy differs from C in more than the cap allows
  kNoMap,      // no usable map or canonical bytes, or sizes, policies or
               // item lists that do not line up
  kUnsettled,  // neither side is provably C relocated at its base
  kSameBase,   // an rva-sensitive item at equal bases
  kUnsynced,   // Algorithm 2 did not resynchronise near the patch
};
inline constexpr std::size_t kDeltaRefusalKinds = 5;

/// The refusal's registry suffix ("over_cap", "no_map", ...).
const char* delta_refusal_name(DeltaRefusal why);

/// How one copy's item stands against the pool's canonical form C of it
/// (the reference's bytes, for an item that is not rva-sensitive).
struct ItemDelta {
  enum class Kind : std::uint8_t {
    kRelocated,  // provably C relocated at the copy's base
    kPatched,    // differs from that at `spans` only
    kUnknown,    // not known; `why` says why
  };
  Kind kind = Kind::kUnknown;
  DeltaRefusal why = DeltaRefusal::kUnsettled;
  ByteSpans spans;
};

/// What one fallback pair's decide() examined.
struct DecideTally {
  /// Items examined.
  std::size_t items = 0;
  /// Items the delta fallback decided, and items it left to the per-item
  /// code, by DeltaRefusal.
  std::size_t delta_items = 0;
  std::array<std::size_t, kDeltaRefusalKinds> refusals{};
};

/// The delta fallback's view of one finalized CanonicalPool, prepared on
/// the orchestrating thread before the fallback pairs run and read-only
/// while they do (CanonicalPool::plan_fallback).  It lets a pair (X, P)
/// with P provably C relocated decide each item from where X differs from
/// C, without running Algorithm 2 over the whole item (DESIGN §5.1, "the
/// locality lemma").  Borrows the pool and the planned copies.
class DeltaPlan {
 public:
  enum class Answer : std::uint8_t { kMatch, kMismatch, kRefused };

  /// Seeds `forms` with the digests the pool already holds for the
  /// canonical forms a planned pair may look up (DigestTable::seed_form).
  void seed(DigestTable& forms) const;

  /// Decides item `i` of the positionally paired copies `a` (subject) and
  /// `b` exactly as IntegrityChecker::decide's per-item code would,
  /// looking up the same forms in `forms`; or refuses, leaving the item to
  /// that code.  Charges `clock` only through `forms` (the caller charges
  /// the item's scan).  Tallies the outcome into `tally`.
  Answer decide(std::size_t i, const ParsedModule& a, const ParsedModule& b,
                DigestTable& forms, SimClock& clock,
                DecideTally& tally) const;

 private:
  friend class CanonicalPool;

  /// Pool item `i`: C (or the reference's raw bytes) and, for an
  /// rva-sensitive item, the map C was recorded with.
  struct Item {
    ByteView canonical;
    const WindowMap* map = nullptr;
    /// DigestTable::fingerprint(canonical) and its digest; set where some
    /// copy is kPatched.
    std::uint64_t fingerprint = 0;
    std::optional<crypto::Digest> digest;
  };

  const ItemDelta* delta(vmm::DomainId vm, std::size_t i) const;
  Answer decide_relocated(std::size_t i, const ParsedModule& a,
                          const ParsedModule& b, const ItemDelta& da,
                          const ItemDelta& db, DigestTable& forms,
                          SimClock& clock, DeltaRefusal& why) const;

  crypto::HashAlgorithm algorithm_ = crypto::HashAlgorithm::kMd5;
  std::vector<Item> items_;
  std::map<vmm::DomainId, std::vector<ItemDelta>> copies_;
  /// Flat copies of reference raw items whose content is not one span.
  std::vector<Bytes> flat_;
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

  /// Post-finalize: the delta fallback's plan for pairs among the pool's
  /// eligible copies and `patched` (ineligible copies that take fallback
  /// pairs; each must outlive the plan).  Each eligible copy's items are
  /// kRelocated where the pool proved it (a window-map hit, the reference,
  /// the copy that established C, or a same-base copy equal to the
  /// reference); each patched copy's items are diffed once against C
  /// relocated at its base, up to a cap.  Charges no simulated time: a
  /// plan only replaces work the fallback pairs are charged for.
  DeltaPlan plan_fallback(
      const std::vector<const ParsedModule*>& patched) const;

 private:
  struct Entry {
    bool eligible = false;
    /// Load base the entry was canonicalized at (update()'s reuse guard).
    std::uint32_t base = 0;
    std::vector<crypto::Digest> digests;
    /// Items whose digest equals the reference's (resolved in finalize()).
    std::vector<std::size_t> ref_items;
    /// Per item: 1 when the item is provably C relocated at `base` (the
    /// reference's bytes, for an item that is not rva-sensitive).
    std::vector<std::uint8_t> relocated;
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
