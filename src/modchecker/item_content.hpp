// Operations over IntegrityItem content.
//
// An item's content is a scatter-gather GuestView (see
// modchecker/item.hpp): spans over guest frames, or one span over an owned
// buffer.  These helpers hash, compare (plainly or against a relocated
// canonical form) and scratch-copy the content through the item's span
// walk; a one-segment view takes the single-span fast path.
//
// Digests are computed by streaming the spans through the incremental
// hasher, so a scattered item is never flattened into a temporary buffer
// just to be hashed.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "crypto/hasher.hpp"
#include "modchecker/item.hpp"
#include "modchecker/rva_adjust.hpp"
#include "util/arena.hpp"

namespace mc::core {

/// Digest of the item's content, identical to hash_bytes over a flat copy.
crypto::Digest hash_item_content(crypto::HashAlgorithm algorithm,
                                 const IntegrityItem& item);

/// Byte equality of two items' contents, span pair by span pair, using the
/// word-wise comparison kernel; allocates nothing.
bool item_content_equal(const IntegrityItem& a, const IntegrityItem& b);

/// [lo, hi) content offsets, ascending and disjoint.
using ByteSpans = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// How much difference a diff pass records before it gives up.
struct DiffCap {
  std::size_t max_bytes = 0;
  std::size_t max_spans = 0;
};

/// Byte equality of two contents given as span lists (a dual-cursor walk
/// comparing each overlap with the word-wise kernel); the lists must
/// cover the same number of bytes.
bool spans_equal(std::span<const ByteView> a, std::span<const ByteView> b);

/// Appends the maximal runs at which `actual` differs from `expected`
/// (equal sizes, at content offset `pos`) to `out`, extending the last
/// run when one continues it.  False once `out` exceeds `cap`; `bytes`
/// counts the bytes `out` covers.
bool append_diff_runs(ByteView actual, ByteView expected, std::size_t pos,
                      const DiffCap& cap, std::size_t& bytes, ByteSpans& out);

/// The maximal runs of bytes at which `item` differs from `expected`,
/// appended to `out` (cleared first).  False when the sizes differ or the
/// runs exceed `cap`; `out` is then incomplete.  One allocation-free pass.
bool content_diff(const IntegrityItem& item, ByteView expected,
                  const DiffCap& cap, ByteSpans& out);

/// content_diff against the canonical form `canonical` relocated at
/// `base` through `map`: canonical's bytes, with each window holding its
/// value plus fixups.biased_base(base), mod 2^width.  False whenever the
/// map is not usable for this copy (other policy or size).  Streams the
/// item's spans against that form a stack chunk at a time.
bool relocated_diff(const IntegrityItem& item, const FixupPolicy& fixups,
                    std::uint32_t base, ByteView canonical,
                    const WindowMap& map, const DiffCap& cap, ByteSpans& out);

/// True iff `item`, a copy loaded at `base` under `fixups`, is the
/// canonical form `canonical` relocated at its own base through `map`
/// (relocated_diff finds no difference).  A true result means
/// adjust_fixups against the reference of the run that recorded `map`
/// resolves every difference and leaves `item`'s copy equal to
/// `canonical` (DESIGN §5.1).
bool relocated_content_equal(const IntegrityItem& item,
                             const FixupPolicy& fixups, std::uint32_t base,
                             ByteView canonical, const WindowMap& map);

/// Copies the item's content into `arena` scratch — the mutation point for
/// Algorithm 2, which rewrites relocation words before hashing.  The span
/// is valid until the enclosing ArenaScope unwinds.
MutableByteView arena_content_copy(Arena& arena, const IntegrityItem& item);

}  // namespace mc::core
