#include "modchecker/item_content.hpp"

#include <algorithm>
#include <span>

namespace mc::core {

namespace {

/// The item's content spans, borrowed in place: the view's segments, or
/// the owned buffer through `owned`.
std::span<const ByteView> content_spans(const IntegrityItem& item,
                                        ByteView& owned) {
  if (item.view_backed()) {
    return item.view.segments();
  }
  owned = ByteView(item.bytes);
  return owned.empty() ? std::span<const ByteView>{}
                       : std::span<const ByteView>(&owned, 1);
}

/// Writes bytes [lo, lo + out.size()) of `canonical` relocated at `biased`
/// into `out`: the canonical bytes, with every window of `starts` (from
/// index `next` on) holding its value plus `biased`, mod 2^width.  `next`
/// advances past the windows that end inside the range; a window that
/// runs on past it stays next for the following range.
void relocate_range(ByteView canonical, const std::vector<std::uint32_t>& starts,
                    std::size_t& next, std::uint32_t width,
                    std::uint64_t biased, std::size_t lo, MutableByteView out) {
  const std::size_t hi = lo + out.size();
  copy_bytes(out, canonical.subspan(lo, out.size()));
  for (; next < starts.size() && starts[next] < hi; ++next) {
    const std::size_t start = starts[next];
    const std::uint64_t value =
        width == 8 ? load_le64(canonical, start) + biased
                   : load_le32(canonical, start) +
                         static_cast<std::uint32_t>(biased);
    if (start >= lo && start + width <= hi) {
      if (width == 8) {
        store_le64(out, start - lo, value);
      } else {
        store_le32(out, start - lo, static_cast<std::uint32_t>(value));
      }
      continue;
    }
    // The window straddles the range's edge: write its bytes inside.
    for (std::size_t b = 0; b < width; ++b) {
      if (start + b >= lo && start + b < hi) {
        out[start + b - lo] = static_cast<std::uint8_t>(value >> (8 * b));
      }
    }
    if (start + width > hi) {
      return;  // continues into the next range
    }
  }
}

}  // namespace

crypto::Digest hash_item_content(crypto::HashAlgorithm algorithm,
                                 const IntegrityItem& item) {
  if (!item.view_backed()) {
    return crypto::hash_bytes(algorithm, item.bytes);
  }
  if (item.view.contiguous()) {
    return crypto::hash_bytes(algorithm, item.view.as_contiguous());
  }
  const std::unique_ptr<crypto::Hasher> hasher = crypto::make_hasher(algorithm);
  item.for_each_span([&](ByteView span) { hasher->update(span); });
  return hasher->finish();
}

bool item_content_equal(const IntegrityItem& a, const IntegrityItem& b,
                        simd::Policy policy) {
  if (a.content_size() != b.content_size()) {
    return false;
  }
  ByteView owned_a;
  ByteView owned_b;
  const std::span<const ByteView> sa = content_spans(a, owned_a);
  const std::span<const ByteView> sb = content_spans(b, owned_b);
  // Dual-cursor walk over the two span lists, comparing each overlap.
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::size_t oa = 0;
  std::size_t ob = 0;
  while (ia < sa.size() && ib < sb.size()) {
    const std::size_t take =
        std::min(sa[ia].size() - oa, sb[ib].size() - ob);
    if (!simd::equal(sa[ia].subspan(oa, take), sb[ib].subspan(ob, take),
                     policy)) {
      return false;
    }
    oa += take;
    ob += take;
    if (oa == sa[ia].size()) {
      ++ia;
      oa = 0;
    }
    if (ob == sb[ib].size()) {
      ++ib;
      ob = 0;
    }
  }
  return true;
}

bool relocated_content_equal(const IntegrityItem& item,
                             const FixupPolicy& fixups, std::uint32_t base,
                             ByteView canonical, const WindowMap& map,
                             simd::Policy policy) {
  if (!map.usable_for(fixups, item.content_size()) ||
      canonical.size() != map.size()) {
    return false;
  }
  // Stream the copy's spans against C relocated at the copy's base, laid
  // out a stack chunk at a time: copy C, write the windows, compare.
  constexpr std::size_t kChunk = 2048;
  std::uint8_t chunk[kChunk];
  const std::uint64_t biased = fixups.biased_base(base);
  std::size_t next = 0;
  std::size_t pos = 0;
  bool equal = true;
  item.for_each_span([&](ByteView span) {
    while (equal && !span.empty()) {
      const std::size_t take = std::min(span.size(), kChunk);
      const MutableByteView expected(chunk, take);
      relocate_range(canonical, map.starts(), next, fixups.width, biased, pos,
                     expected);
      equal = simd::equal(span.first(take), expected, policy);
      span = span.subspan(take);
      pos += take;
    }
  });
  return equal;
}

MutableByteView arena_content_copy(Arena& arena,
                                   const IntegrityItem& item) {
  MutableByteView out = arena.alloc(item.content_size());
  item.copy_content(out);
  return out;
}

}  // namespace mc::core
