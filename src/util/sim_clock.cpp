#include "util/sim_clock.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mc {

SimNanos SimClock::scale(SimNanos nanos) const {
  return static_cast<SimNanos>(
      std::llround(static_cast<double>(nanos) * slowdown_));
}

void SimClock::set_slowdown(double factor) {
  slowdown_ = std::max(1.0, factor);
}

std::string format_sim_nanos(SimNanos nanos) {
  char buf[64];
  const double n = static_cast<double>(nanos);
  if (nanos < 1000ull) {
    std::snprintf(buf, sizeof buf, "%llu ns",
                  static_cast<unsigned long long>(nanos));
  } else if (nanos < 1000000ull) {
    std::snprintf(buf, sizeof buf, "%.2f us", n / 1e3);
  } else if (nanos < 1000000000ull) {
    std::snprintf(buf, sizeof buf, "%.2f ms", n / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f s", n / 1e9);
  }
  return buf;
}

}  // namespace mc
