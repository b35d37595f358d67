// Sample statistics and outcome accounting for the host-clock benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

/// Nearest-rank percentile (q in (0, 1]) of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The highest of p50/p90/p95/p99/p99.9 that still has at least ten
/// samples beyond it (p50 when even that does not).
struct Tail {
  double q = 0.5;
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
  /// "p99", "p99.9", ...
  std::string label() const;
};
Tail highest_tail(const std::vector<double>& sorted);

/// Median, p99 and the tail rule over one metric's samples.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  Tail tail;
};
Summary summarize(std::vector<double> samples);

/// Outcomes of the operations a workload attempted.  An operation fails
/// when its verdict differs from ground truth, or when it was dropped or
/// cancelled instead of completing.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool verdict_ok) {
    ++attempted;
    if (!verdict_ok) {
      ++failed;
    }
  }
  void record_dropped() {
    ++attempted;
    ++failed;
  }
  /// Counts the other tally's failures as failed attempts here (warm-up
  /// mismatches, whose successes are not part of the measured run).
  void add_failures(const Tally& other) {
    attempted += other.failed;
    failed += other.failed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace hostbench
