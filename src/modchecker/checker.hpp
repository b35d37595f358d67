// Integrity-Checker — paper §III-B.3, §IV-C.
//
// Two responsibilities: (1) adjust the relative virtual addresses in
// executable content so the same code hashes identically across VMs
// (Algorithm 2, see rva_adjust.hpp), and (2) compute the MD5 of every
// header and every section-data item and compare the values pairwise
// between the subject VM's module and each other VM's copy.  compare()
// reports every item's digests; decide() returns only the pair's verdict
// and hashes only items whose bytes differ.
#pragma once

#include <string>
#include <vector>

#include "crypto/hasher.hpp"
#include "modchecker/canonical.hpp"
#include "modchecker/rva_adjust.hpp"
#include "modchecker/types.hpp"
#include "util/sim_clock.hpp"
#include "vmi/cost_model.hpp"

namespace mc::core {

/// Outcome of comparing one integrity item between two VMs.
struct ItemComparison {
  std::string item_name;
  ItemKind kind{};
  bool match = false;
  crypto::Digest digest_subject;
  crypto::Digest digest_other;
  /// RVA-adjustment telemetry (exec sections only).
  std::uint32_t rvas_adjusted = 0;
  std::uint32_t unresolved_diffs = 0;
};

/// Outcome of comparing the subject module against one other VM's copy.
struct PairComparison {
  vmm::DomainId other_domain = 0;
  std::vector<ItemComparison> items;
  bool all_match = false;
};

class IntegrityChecker {
 public:
  explicit IntegrityChecker(
      crypto::HashAlgorithm algorithm = crypto::HashAlgorithm::kMd5,
      const vmi::HostCostModel& costs = {})
      : algorithm_(algorithm), costs_(costs) {}

  crypto::HashAlgorithm algorithm() const { return algorithm_; }

  /// Compares `subject` with `other` item by item.  Item lists can differ
  /// in shape when headers were tampered with (e.g. an injected section):
  /// items are paired by (kind, name), the first unused item winning;
  /// unmatched items count as mismatches.  Charges hashing/scan time to
  /// `clock`.
  ///
  /// With `memo`, digests of items that are NOT rva-sensitive are served
  /// from the table instead of being recomputed per pair — match decisions
  /// are identical because those items compare raw bytes.  rva-sensitive
  /// items always take the exact per-pair adjustment path (their buffers
  /// are pair-specific after Algorithm 2).
  PairComparison compare(const ParsedModule& subject,
                         const ParsedModule& other, SimClock& clock,
                         DigestTable* memo = nullptr) const;

  /// compare(subject, other, clock).all_match, deciding only what the
  /// verdict needs.  Items pair exactly as in compare(), and an item
  /// unmatched on either side fails the pair.  Each paired item is
  /// compared byte for byte: raw items in place, rva-sensitive items
  /// after Algorithm 2 on arena copies.  Equal bytes decide the item as a
  /// match; differing bytes decide by digest equality, with each side's
  /// digest served by `forms` (content-verified, so a form met by many
  /// pairs is hashed once per table).  Returns at the first mismatching
  /// item.  A byte compare is charged rva_scan_per_byte, a form lookup as
  /// DigestTable::form_digest says.  `tally`, if given, counts the items
  /// examined.
  ///
  /// With `plan` (the pool's delta fallback, CanonicalPool::plan_fallback)
  /// a positionally paired item is first offered to DeltaPlan::decide,
  /// which answers from where the copies differ from the canonical form
  /// when it can, looking up the same forms; its answer is the per-item
  /// code's, and the item is charged the same.
  bool decide(const ParsedModule& subject, const ParsedModule& other,
              SimClock& clock, DigestTable& forms,
              DecideTally* tally = nullptr,
              const DeltaPlan* plan = nullptr) const;

 private:
  crypto::HashAlgorithm algorithm_;
  vmi::HostCostModel costs_;
};

}  // namespace mc::core
