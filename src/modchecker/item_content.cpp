#include "modchecker/item_content.hpp"

#include <algorithm>
#include <span>

#include "util/simd.hpp"

namespace mc::core {

namespace {

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
  if (item.view.contiguous()) {
    return crypto::hash_bytes(algorithm, item.view.as_contiguous());
  }
  const std::unique_ptr<crypto::Hasher> hasher = crypto::make_hasher(algorithm);
  item.for_each_span([&](ByteView span) { hasher->update(span); });
  return hasher->finish();
}

bool spans_equal(std::span<const ByteView> a, std::span<const ByteView> b) {
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::size_t oa = 0;
  std::size_t ob = 0;
  while (ia < a.size() && ib < b.size()) {
    const std::size_t take = std::min(a[ia].size() - oa, b[ib].size() - ob);
    if (!simd::equal(a[ia].subspan(oa, take), b[ib].subspan(ob, take))) {
      return false;
    }
    oa += take;
    ob += take;
    if (oa == a[ia].size()) {
      ++ia;
      oa = 0;
    }
    if (ob == b[ib].size()) {
      ++ib;
      ob = 0;
    }
  }
  return true;
}

bool item_content_equal(const IntegrityItem& a, const IntegrityItem& b) {
  if (a.content_size() != b.content_size()) {
    return false;
  }
  return spans_equal(a.view.segments(), b.view.segments());
}

bool append_diff_runs(ByteView actual, ByteView expected, std::size_t pos,
                      const DiffCap& cap, std::size_t& bytes, ByteSpans& out) {
  const std::size_t n = actual.size();
  std::size_t k = simd::mismatch(actual.data(), expected.data(), n, 0);
  while (k < n) {
    std::size_t e = k + 1;
    while (e < n && actual[e] != expected[e]) {
      ++e;
    }
    const auto lo = static_cast<std::uint32_t>(pos + k);
    const auto hi = static_cast<std::uint32_t>(pos + e);
    if (!out.empty() && out.back().second == lo) {
      out.back().second = hi;
    } else {
      out.emplace_back(lo, hi);
    }
    bytes += e - k;
    if (bytes > cap.max_bytes || out.size() > cap.max_spans) {
      return false;
    }
    k = simd::mismatch(actual.data(), expected.data(), n, e);
  }
  return true;
}

bool content_diff(const IntegrityItem& item, ByteView expected,
                  const DiffCap& cap, ByteSpans& out) {
  out.clear();
  if (item.content_size() != expected.size()) {
    return false;
  }
  std::size_t pos = 0;
  std::size_t bytes = 0;
  bool within = true;
  item.for_each_span([&](ByteView span) {
    if (within && !simd::equal(span, expected.subspan(pos, span.size()))) {
      within = append_diff_runs(span, expected.subspan(pos, span.size()),
                                pos, cap, bytes, out);
    }
    pos += span.size();
  });
  return within;
}

bool relocated_diff(const IntegrityItem& item, const FixupPolicy& fixups,
                    std::uint32_t base, ByteView canonical,
                    const WindowMap& map, const DiffCap& cap, ByteSpans& out) {
  out.clear();
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
  std::size_t bytes = 0;
  bool within = true;
  item.for_each_span([&](ByteView span) {
    while (within && !span.empty()) {
      const std::size_t take = std::min(span.size(), kChunk);
      const MutableByteView expected(chunk, take);
      relocate_range(canonical, map.starts(), next, fixups.width, biased, pos,
                     expected);
      if (!simd::equal(span.first(take), expected)) {
        within = append_diff_runs(span.first(take), expected, pos, cap,
                                  bytes, out);
      }
      span = span.subspan(take);
      pos += take;
    }
  });
  return within;
}

bool relocated_content_equal(const IntegrityItem& item,
                             const FixupPolicy& fixups, std::uint32_t base,
                             ByteView canonical, const WindowMap& map) {
  ByteSpans none;
  return relocated_diff(item, fixups, base, canonical, map, DiffCap{}, none) &&
         none.empty();
}

MutableByteView arena_content_copy(Arena& arena,
                                   const IntegrityItem& item) {
  MutableByteView out = arena.alloc(item.content_size());
  item.copy_content(out);
  return out;
}

}  // namespace mc::core
