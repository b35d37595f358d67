// Content-mode-agnostic operations over IntegrityItems.
//
// An item's content is either an owned buffer or a borrowed scatter-gather
// GuestView (see modchecker/item.hpp).  The checker, digest memo and canonical
// pool never need to know which: these helpers hash, compare (plainly or
// against a relocated canonical form) and scratch-copy the content through
// the item's span walk, so the zero-copy Acquire path feeds the exact same
// downstream code as the owned path.
//
// Digests are computed by streaming the spans through the incremental
// hasher, so a view-backed item is never flattened into a temporary buffer
// just to be hashed.
#pragma once

#include <cstdint>

#include "crypto/hasher.hpp"
#include "modchecker/item.hpp"
#include "modchecker/rva_adjust.hpp"
#include "util/arena.hpp"
#include "util/simd.hpp"

namespace mc::core {

/// Digest of the item's content, identical to hash_bytes over a flat copy.
crypto::Digest hash_item_content(crypto::HashAlgorithm algorithm,
                                 const IntegrityItem& item);

/// Byte equality of two items' contents, span pair by span pair, using the
/// word-wise comparison kernels; allocates nothing.  `policy` pins the
/// call scalar.
bool item_content_equal(const IntegrityItem& a, const IntegrityItem& b,
                        simd::Policy policy = simd::Policy::kAuto);

/// True iff `item`, a copy loaded at `base` under `fixups`, is the
/// canonical form `canonical` relocated at its own base through `map`:
/// equal to `canonical` outside the map's windows, and each window equal
/// to canonical's value plus fixups.biased_base(base), mod 2^width.  One
/// allocation-free pass over the item's spans.  False whenever the map is
/// not usable for this copy (other policy or size).  A true result means
/// adjust_fixups against the reference of the run that recorded `map`
/// resolves every difference and leaves `item`'s copy equal to
/// `canonical` (DESIGN §5.1).
bool relocated_content_equal(const IntegrityItem& item,
                             const FixupPolicy& fixups, std::uint32_t base,
                             ByteView canonical, const WindowMap& map,
                             simd::Policy policy = simd::Policy::kAuto);

/// Copies the item's content into `arena` scratch — the mutation point for
/// Algorithm 2, which rewrites relocation words before hashing.  The span
/// is valid until the enclosing ArenaScope unwinds.
MutableByteView arena_content_copy(Arena& arena, const IntegrityItem& item);

}  // namespace mc::core
