#include "util/simd.hpp"

#include <bit>

#include "util/wordload.hpp"

namespace mc::simd {

namespace {

/// Index of the first differing byte inside a nonzero XOR of two native
/// words: the lowest-addressed byte is the least significant on a
/// little-endian host and the most significant on a big-endian one.
std::size_t first_byte(std::uint64_t x) {
  if constexpr (std::endian::native == std::endian::big) {
    return static_cast<std::size_t>(std::countl_zero(x)) / 8;
  } else {
    return static_cast<std::size_t>(std::countr_zero(x)) / 8;
  }
}

}  // namespace

std::size_t mismatch(const std::uint8_t* a, const std::uint8_t* b,
                     std::size_t n, std::size_t from) {
  std::size_t i = from;
  // Four words per step; only a step holding a difference branches into
  // the per-word search.
  while (i + 32 <= n) {
    const std::uint64_t x0 = load_word64(a + i) ^ load_word64(b + i);
    const std::uint64_t x1 = load_word64(a + i + 8) ^ load_word64(b + i + 8);
    const std::uint64_t x2 =
        load_word64(a + i + 16) ^ load_word64(b + i + 16);
    const std::uint64_t x3 =
        load_word64(a + i + 24) ^ load_word64(b + i + 24);
    if ((x0 | x1 | x2 | x3) != 0) {
      break;
    }
    i += 32;
  }
  while (i + 8 <= n) {
    const std::uint64_t x = load_word64(a + i) ^ load_word64(b + i);
    if (x != 0) {
      return i + first_byte(x);
    }
    i += 8;
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) {
      return i;
    }
  }
  return n;
}

bool equal(ByteView a, ByteView b) {
  return a.size() == b.size() &&
         mismatch(a.data(), b.data(), a.size(), 0) == a.size();
}

}  // namespace mc::simd
