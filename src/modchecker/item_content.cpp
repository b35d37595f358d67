#include "modchecker/item_content.hpp"

#include <algorithm>
#include <vector>

namespace mc::core {

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
  // Fast exit for the owned/contiguous common case.
  if (!a.view_backed() && !b.view_backed()) {
    return simd::equal(ByteView(a.bytes), ByteView(b.bytes), policy);
  }
  std::vector<ByteView> sa;
  std::vector<ByteView> sb;
  a.for_each_span([&](ByteView span) { sa.push_back(span); });
  b.for_each_span([&](ByteView span) { sb.push_back(span); });
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

MutableByteView arena_content_copy(Arena& arena,
                                   const IntegrityItem& item) {
  MutableByteView out = arena.alloc(item.content_size());
  item.copy_content(out);
  return out;
}

}  // namespace mc::core
