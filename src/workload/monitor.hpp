// In-guest resource monitor — the paper's "light-weight tool in Python"
// (§V-C.2) that records CPU, memory, disk and network state inside a VM so
// ModChecker-induced perturbation (if any) can be observed.
//
// ModChecker is agentless: it reads guest frames from the privileged VM,
// so the only guest-visible effect is a vanishingly small cache/memory-bus
// disturbance.  The sample generator models each counter as baseline +
// AR(1) noise + a configurable (default: tiny) access-window effect, and
// the analyzer computes Welch's t between in-window and out-of-window
// samples — reproducing Fig. 9's "no significant perturbation" result.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.hpp"

namespace mc::workload {

struct ResourceSample {
  double t = 0;  // seconds since monitoring start
  // CPU state (percentages, paper: "idle time, privileged time and user
  // time").
  double cpu_idle_pct = 0;
  double cpu_user_pct = 0;
  double cpu_privileged_pct = 0;
  // Memory state ("percentage of free physical and virtual memory and
  // number of page faults").
  double mem_free_pct = 0;
  double virt_free_pct = 0;
  double page_faults_per_s = 0;
  // Disk state ("queue length and disk read/write per second rate").
  double disk_queue = 0;
  double disk_reads_per_s = 0;
  double disk_writes_per_s = 0;
  // Network state ("number of packets sent/received").
  double net_sent_per_s = 0;
  double net_recv_per_s = 0;

  bool in_access_window = false;
};

struct AccessWindow {
  double start = 0;  // seconds
  double end = 0;
};

struct MonitorConfig {
  std::uint64_t seed = 1;
  /// Guest load: 0 = idle (the Fig. 9 setting), 1 = HeavyLoad.
  double load_level = 0.0;
  double sample_hz = 1.0;
  /// Magnitude of the guest-visible effect of a VMI access window, as a
  /// fraction of a CPU percentage point.  Default models the real effect:
  /// far below the noise floor.
  double access_effect_pct = 0.02;
};

class ResourceMonitor {
 public:
  explicit ResourceMonitor(const MonitorConfig& config) : config_(config) {}

  /// Records `duration_s` seconds of samples; samples falling inside any
  /// access window are marked and receive the (tiny) access effect.
  std::vector<ResourceSample> record(
      double duration_s, const std::vector<AccessWindow>& windows) const;

 private:
  MonitorConfig config_;
};

/// Welch-style comparison of one metric between in-window and out-of-window
/// samples.  Perf-counter series are autocorrelated (load drifts), so the
/// t statistic uses effective sample sizes n_eff = n * (1-r1) / (1+r1)
/// where r1 is the series' lag-1 autocorrelation — the standard correction
/// for comparing means of AR(1)-like measurements.
/// Result of one analysis, not an accumulating counter set — the registry
/// records how many analyses ran ("workload.analyses"/".significant");
/// the per-metric statistics stay a plain value type.
// mc-lint: allow(adhoc-stats)
struct PerturbationStats {
  double mean_in = 0;
  double mean_out = 0;
  double stddev_in = 0;
  double stddev_out = 0;
  double lag1_autocorr = 0;
  double welch_t = 0;
  std::size_t n_in = 0;
  std::size_t n_out = 0;

  /// |t| >= 2 would indicate a visible perturbation at ~95% confidence.
  bool significant() const { return welch_t >= 2.0 || welch_t <= -2.0; }
};

PerturbationStats analyze_metric(
    const std::vector<ResourceSample>& samples,
    const std::function<double(const ResourceSample&)>& metric);

}  // namespace mc::workload
