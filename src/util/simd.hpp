// The byte-compare kernel.
//
// Algorithm 2's diff scan and the digest-table equality checks are the
// byte-touching core of a pool scan.  One portable word kernel serves them
// all: XOR four 8-byte words per step (32 bytes), then single words, then
// bytes, and locate the first differing byte from the bit count of the
// nonzero XOR word.  The tests check it against a byte loop, and the
// fast-path bench gates its speedup over one (DESIGN §11.2).
//
// The kernel is a pure byte function: it never touches the SimClock, so it
// cannot perturb simulated costs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace mc::simd {

/// First index i in [from, n) with a[i] != b[i], or n if the suffixes are
/// equal.  Both pointers must have n readable bytes.
std::size_t mismatch(const std::uint8_t* a, const std::uint8_t* b,
                     std::size_t n, std::size_t from);

/// Word-wise content equality (size + bytes).
bool equal(ByteView a, ByteView b);

}  // namespace mc::simd
