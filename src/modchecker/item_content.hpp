// Content-mode-agnostic operations over IntegrityItems.
//
// An item's content is either an owned buffer or a borrowed scatter-gather
// GuestView (see modchecker/item.hpp).  The checker, digest memo and canonical
// pool never need to know which: these helpers hash, compare and
// scratch-copy the content through the item's span walk, so the zero-copy
// Acquire path feeds the exact same downstream code as the owned path.
//
// Digests are computed by streaming the spans through the incremental
// hasher, so a view-backed item is never flattened into a temporary buffer
// just to be hashed.
#pragma once


#include "crypto/hasher.hpp"
#include "modchecker/item.hpp"
#include "util/arena.hpp"
#include "util/simd.hpp"

namespace mc::core {

/// Digest of the item's content, identical to hash_bytes over a flat copy.
crypto::Digest hash_item_content(crypto::HashAlgorithm algorithm,
                                 const IntegrityItem& item);

/// Byte equality of two items' contents, span pair by span pair, using the
/// word-wise comparison kernels.  `policy` pins the call scalar.
bool item_content_equal(const IntegrityItem& a, const IntegrityItem& b,
                        simd::Policy policy = simd::Policy::kAuto);

/// Copies the item's content into `arena` scratch — the mutation point for
/// Algorithm 2, which rewrites relocation words before hashing.  The span
/// is valid until the enclosing ArenaScope unwinds.
MutableByteView arena_content_copy(Arena& arena, const IntegrityItem& item);

}  // namespace mc::core
