// Test helpers for the fault-returning guest-access API.  Every guest read
// returns Fallible<T> / MaybeFault; tests that expect success unwrap with
// must(), and tests that expect a fault assert on its code with
// fault_code().
#pragma once

#include <optional>
#include <stdexcept>
#include <utility>

#include "util/fault.hpp"

namespace mc::test {

/// The value of a successful result.  A fault fails the running test:
/// gtest reports the thrown exception, with the formatted record, as a
/// failure of the test body.  Call it on the test's own thread only.
template <typename T>
T must(Fallible<T> result) {
  if (!result.ok()) {
    throw std::runtime_error("unexpected guest fault: " +
                             format_fault(result.fault()));
  }
  return std::move(result.value());
}

/// The fault's code, or nullopt when the call succeeded.
template <typename T>
std::optional<FaultCode> fault_code(const Fallible<T>& result) {
  if (result.ok()) {
    return std::nullopt;
  }
  return result.fault().code;
}

inline std::optional<FaultCode> fault_code(const MaybeFault& fault) {
  if (!fault) {
    return std::nullopt;
  }
  return fault->code;
}

}  // namespace mc::test
