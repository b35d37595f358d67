// Shared unaligned word loads for the hot path.
//
// The crypto block loops and the byte-compare kernel all want "give
// me the 32/64-bit word at this byte offset" without assembling it a byte
// at a time.  These helpers are the one blessed place that turns byte
// storage into words: a compiler-builtin memcpy (which every target here
// lowers to a single load) plus an explicit byte-order composition, so
// there is no pointer type-punning and no alignment assumption anywhere.
//
// The ByteView overloads bounds-check like load_le32 in bytes.hpp; the
// pointer overloads are for inner loops whose bounds were established
// once at the top (crypto 64-byte blocks, the compare kernel's words).
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace mc {

/// Native-order 64-bit load (the compare kernel only XORs words against
/// each other, so equal bytes give a zero word whatever the byte order;
/// util/simd.cpp locates the first differing byte per native order).
inline std::uint64_t load_word64(const std::uint8_t* p) {
  std::uint64_t w;
  __builtin_memcpy(&w, p, sizeof(w));
  return w;
}

/// Little-endian 32-bit load from a raw byte pointer.
inline std::uint32_t load_le32_word(const std::uint8_t* p) {
  std::uint32_t w;
  __builtin_memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap32(w);
#endif
  return w;
}

/// Big-endian 32-bit load from a raw byte pointer (SHA-1/SHA-256 message
/// schedule words).
inline std::uint32_t load_be32_word(const std::uint8_t* p) {
  std::uint32_t w;
  __builtin_memcpy(&w, p, sizeof(w));
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  w = __builtin_bswap32(w);
#endif
  return w;
}

/// Little-endian 32-bit store to a raw byte pointer (Algorithm 2 rewrites
/// the relocation word in place after adjusting it).
inline void store_le32_word(std::uint8_t* p, std::uint32_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  __builtin_memcpy(p, &v, sizeof(v));
}

/// Bounds-checked span variants, for callers outside established loops.
inline std::uint32_t load_le32_at(ByteView b, std::size_t off) {
  MC_CHECK(off + 4 <= b.size(), "load_le32_at out of range");
  return load_le32_word(b.data() + off);
}

inline void store_le32_at(MutableByteView b, std::size_t off,
                          std::uint32_t v) {
  MC_CHECK(off + 4 <= b.size(), "store_le32_at out of range");
  store_le32_word(b.data() + off, v);
}

}  // namespace mc
