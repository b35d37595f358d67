// Interleaved, paired timing for the host-clock overhead gates.
//
// A gate compares configurations of the same scan.  Timing each one in a
// block of scans lets machine drift and load spikes land on one side;
// here every round times each configuration once, back to back, in an
// order rotated by the round, and a configuration's overhead is the
// median over rounds of its scan time over the baseline's scan time in
// the same round.  A spike that slows one round moves one ratio, not the
// estimate.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

namespace mc::bench {

/// Host seconds of `body`.
template <typename Body>
double seconds_of(Body&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// samples[side][round]: `rounds` timings of each of `sides`
/// configurations, interleaved scan by scan.  `time_scan(side)` runs one
/// scan of that configuration and returns its host seconds (set-up outside
/// the timed window is the caller's to leave out).
template <typename TimeScan>
std::vector<std::vector<double>> interleaved_seconds(std::size_t sides,
                                                     int rounds,
                                                     TimeScan&& time_scan) {
  std::vector<std::vector<double>> samples(sides);
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k < sides; ++k) {
      const std::size_t side = (k + static_cast<std::size_t>(round)) % sides;
      samples[side].push_back(time_scan(side));
    }
  }
  return samples;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// The median over rounds of `side`'s time over `base`'s time that round.
inline double median_paired_ratio(
    const std::vector<std::vector<double>>& samples, std::size_t side,
    std::size_t base) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < samples[side].size(); ++r) {
    ratios.push_back(samples[side][r] / samples[base][r]);
  }
  return median(std::move(ratios));
}

}  // namespace mc::bench
