#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace hostbench {

namespace {

std::size_t rank_index(std::size_t n, double q) {
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  return sorted[rank_index(sorted.size(), q)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

std::string Tail::label() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", q * 100.0);
  return buf;
}

Tail highest_tail(const std::vector<double>& sorted) {
  Tail t;
  t.n = sorted.size();
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.5}) {
    if (samples_beyond(t.n, q) >= 10 || q == 0.5) {
      t.q = q;
      break;
    }
  }
  t.value = percentile(sorted, t.q);
  t.beyond = samples_beyond(t.n, t.q);
  return t;
}

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  if (samples.empty()) {
    return s;
  }
  s.p50 = percentile(samples, 0.5);
  s.p99 = percentile(samples, 0.99);
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  s.tail = highest_tail(samples);
  return s;
}

}  // namespace hostbench
