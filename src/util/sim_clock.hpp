// Simulated time accounting.
//
// The paper measures ModChecker runtime on a specific Xen testbed.  We have
// no Xen, so every simulated operation (page mapping, byte copy, hashing,
// parsing) *charges* calibrated time to a SimClock instead of being measured
// with a wall clock.  This keeps the reproduced figures deterministic and
// machine-independent while preserving the paper's runtime *shapes*
// (component ranking, linearity, the contention knee of Fig. 8).
//
// Charges are expressed in nanoseconds and may be scaled by a contention
// factor (see vmm::ContentionModel) before being accumulated.
#pragma once

#include <cstdint>
#include <string>

namespace mc {

/// Simulated nanoseconds.
using SimNanos = std::uint64_t;

/// A monotonically accumulating simulated clock.
///
/// Not thread-safe by design: each worker in a parallel pool scan owns its
/// own SimClock and the results are merged (max for wall time, sum for CPU
/// time) by the orchestrator — see modchecker::ModChecker.
class SimClock {
 public:
  SimClock() = default;

  /// Charges `nanos` of simulated time, scaled by the current slowdown
  /// factor and rounded to the nearest nanosecond. Returns the amount
  /// actually charged.
  SimNanos charge(SimNanos nanos) {
    // Below 2^53 a double holds `nanos` exactly, so at slowdown 1.0 the
    // scaled, rounded value is `nanos` itself: skip the multiply.
    const SimNanos scaled = slowdown_ == 1.0 && nanos < kExactDoubleLimit
                                ? nanos
                                : scale(nanos);
    now_ += scaled;
    return scaled;
  }

  /// Sets the multiplicative slowdown applied to subsequent charges
  /// (1.0 = no contention).  Values < 1 are clamped to 1.
  void set_slowdown(double factor);
  double slowdown() const { return slowdown_; }

  /// Current simulated time since construction / last reset.
  SimNanos now() const { return now_; }

  void reset() { now_ = 0; }

  /// Advances the clock without scaling (used to model fixed latencies
  /// such as scheduling delays that contention does not amplify).
  void advance_raw(SimNanos nanos) { now_ += nanos; }

 private:
  static constexpr SimNanos kExactDoubleLimit = SimNanos{1} << 53;

  /// llround(nanos * slowdown).
  SimNanos scale(SimNanos nanos) const;

  SimNanos now_ = 0;
  double slowdown_ = 1.0;
};

/// Formats simulated nanoseconds as a human-readable quantity
/// (e.g. "12.34 ms").
std::string format_sim_nanos(SimNanos nanos);

/// Convenience conversions.
constexpr SimNanos sim_us(std::uint64_t us) { return us * 1000ull; }
constexpr SimNanos sim_ms(std::uint64_t ms) { return ms * 1000000ull; }
constexpr double to_ms(SimNanos nanos) {
  return static_cast<double>(nanos) / 1e6;
}

}  // namespace mc
