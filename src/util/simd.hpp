// Word-wise compare kernels with runtime dispatch.
//
// Algorithm 2's diff scan and the digest-table equality checks are the
// byte-touching core of a pool scan.  These kernels replace their per-byte
// loops with (in preference order) an AVX2 32-byte compare, a SWAR 8-byte
// XOR compare, or the plain scalar loop — selected once at runtime and
// overridable two ways:
//
//   * MC_FORCE_SCALAR=1 in the environment (or set_force_scalar(true))
//     pins the whole process to the scalar kernels, which is how the CI
//     force-scalar leg and the differential suites prove every level
//     produces bit-identical results;
//   * Policy::kScalar on an individual call, which is how a kernel
//     benchmark or equivalence test runs the scalar reference next to the
//     dispatched kernel in one process.
//
// The kernels are pure byte functions: they never touch the SimClock, so
// dispatch level cannot perturb simulated costs (the differential suites
// are the oracle for that claim).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace mc::simd {

/// Per-call dispatch override.
enum class Policy {
  kAuto,    // use the process-wide level (env + CPU detection)
  kScalar,  // force the scalar kernel for this call
};

/// The kernel actually selected.
enum class Level { kScalar, kSwar, kAvx2 };

/// Process-wide force-scalar switch.  Initialized from MC_FORCE_SCALAR
/// ("", unset and "0" mean off) on first use; tests and benchmarks may
/// override it programmatically.
bool force_scalar();
void set_force_scalar(bool on);

/// The level a call with the given policy will run at.
Level active_level(Policy policy = Policy::kAuto);
const char* level_name(Level level);

/// First index i in [from, n) with a[i] != b[i], or n if the suffixes are
/// equal.  Both pointers must have n readable bytes.
std::size_t mismatch(const std::uint8_t* a, const std::uint8_t* b,
                     std::size_t n, std::size_t from,
                     Policy policy = Policy::kAuto);

/// Word-wise content equality (size + bytes).
bool equal(ByteView a, ByteView b, Policy policy = Policy::kAuto);

}  // namespace mc::simd
