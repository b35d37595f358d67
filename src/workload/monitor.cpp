#include "workload/monitor.hpp"

#include <algorithm>
#include <cmath>
#include "telemetry/registry.hpp"

namespace mc::workload {

namespace {

/// Smooth noise: AR(1) process with configurable correlation, driven by a
/// shared generator.  Produces the gentle drift real perf counters show.
class Ar1Noise {
 public:
  Ar1Noise(Xoshiro256& rng, double sigma, double rho = 0.7)
      : rng_(&rng), sigma_(sigma), rho_(rho) {}

  double next() {
    // Sum of 4 uniforms ~ approximately normal (Irwin-Hall), cheap and
    // deterministic.
    double g = 0;
    for (int i = 0; i < 4; ++i) {
      g += rng_->unit();
    }
    g = (g - 2.0) * std::sqrt(3.0);  // ~N(0,1)
    state_ = rho_ * state_ + std::sqrt(1 - rho_ * rho_) * g;
    return state_ * sigma_;
  }

 private:
  Xoshiro256* rng_;
  double sigma_;
  double rho_;
  double state_ = 0;
};

bool in_any_window(double t, const std::vector<AccessWindow>& windows) {
  return std::any_of(windows.begin(), windows.end(),
                     [t](const AccessWindow& w) {
                       return t >= w.start && t < w.end;
                     });
}

double clamp_pct(double v) { return std::clamp(v, 0.0, 100.0); }

}  // namespace

std::vector<ResourceSample> ResourceMonitor::record(
    double duration_s, const std::vector<AccessWindow>& windows) const {
  Xoshiro256 rng(config_.seed);
  const double load = std::clamp(config_.load_level, 0.0, 1.0);

  // Baselines scale with guest load: an idle XP guest sits ~97% idle with
  // a trickle of background activity; a HeavyLoad guest pegs the CPU.
  const double base_idle = 97.0 - 92.0 * load;
  const double base_user = 2.0 + 80.0 * load;
  const double base_priv = 1.0 + 12.0 * load;
  const double base_mem_free = 72.0 - 40.0 * load;
  const double base_virt_free = 85.0 - 35.0 * load;
  const double base_faults = 12.0 + 600.0 * load;
  const double base_queue = 0.05 + 2.2 * load;
  const double base_reads = 1.5 + 120.0 * load;
  const double base_writes = 0.8 + 180.0 * load;
  // The monitor itself ships its readings over the network (§V-C.2), so a
  // small steady packet rate is part of the baseline.
  const double base_sent = 3.0 + 40.0 * load;
  const double base_recv = 2.0 + 30.0 * load;

  Ar1Noise cpu_noise(rng, 1.1);
  Ar1Noise priv_noise(rng, 0.35);
  Ar1Noise mem_noise(rng, 0.6);
  Ar1Noise fault_noise(rng, 2.5 + 40.0 * load);
  Ar1Noise disk_noise(rng, 0.02 + 0.5 * load);
  Ar1Noise io_noise(rng, 0.5 + 25.0 * load);
  Ar1Noise net_noise(rng, 0.8 + 8.0 * load);

  const auto count =
      static_cast<std::size_t>(duration_s * config_.sample_hz);
  std::vector<ResourceSample> samples;
  samples.reserve(count);

  for (std::size_t i = 0; i < count; ++i) {
    ResourceSample s;
    s.t = static_cast<double>(i) / config_.sample_hz;
    s.in_access_window = in_any_window(s.t, windows);

    // The agentless access effect: a sliver of extra privileged time from
    // memory-bus contention.  Deliberately far below the noise sigma.
    const double access = s.in_access_window ? config_.access_effect_pct : 0.0;

    const double user = base_user + cpu_noise.next();
    const double priv = base_priv + priv_noise.next() + access;
    s.cpu_user_pct = clamp_pct(user);
    s.cpu_privileged_pct = clamp_pct(priv);
    s.cpu_idle_pct = clamp_pct(base_idle - (user - base_user) -
                               (priv - base_priv));
    s.mem_free_pct = clamp_pct(base_mem_free + mem_noise.next());
    s.virt_free_pct = clamp_pct(base_virt_free + mem_noise.next() * 0.5);
    s.page_faults_per_s = std::max(0.0, base_faults + fault_noise.next());
    s.disk_queue = std::max(0.0, base_queue + disk_noise.next());
    s.disk_reads_per_s = std::max(0.0, base_reads + io_noise.next());
    s.disk_writes_per_s = std::max(0.0, base_writes + io_noise.next());
    s.net_sent_per_s = std::max(0.0, base_sent + net_noise.next());
    s.net_recv_per_s = std::max(0.0, base_recv + net_noise.next());

    samples.push_back(s);
  }
  return samples;
}

PerturbationStats analyze_metric(
    const std::vector<ResourceSample>& samples,
    const std::function<double(const ResourceSample&)>& metric) {
  // Analysis counts land on the process-default registry: the monitor is a
  // measurement harness with no per-pipeline registry of its own.
  static const telemetry::Counter analyses =
      telemetry::MetricRegistry::process_default().counter(
          "workload.analyses");
  static const telemetry::Counter significant_count =
      telemetry::MetricRegistry::process_default().counter(
          "workload.significant");
  analyses.inc();
  PerturbationStats stats;
  double sum_in = 0;
  double sum_out = 0;
  for (const auto& s : samples) {
    const double v = metric(s);
    if (s.in_access_window) {
      sum_in += v;
      ++stats.n_in;
    } else {
      sum_out += v;
      ++stats.n_out;
    }
  }
  if (stats.n_in == 0 || stats.n_out == 0) {
    return stats;
  }
  stats.mean_in = sum_in / static_cast<double>(stats.n_in);
  stats.mean_out = sum_out / static_cast<double>(stats.n_out);

  double ss_in = 0;
  double ss_out = 0;
  for (const auto& s : samples) {
    const double v = metric(s);
    if (s.in_access_window) {
      ss_in += (v - stats.mean_in) * (v - stats.mean_in);
    } else {
      ss_out += (v - stats.mean_out) * (v - stats.mean_out);
    }
  }
  stats.stddev_in = stats.n_in > 1
                        ? std::sqrt(ss_in / static_cast<double>(stats.n_in - 1))
                        : 0;
  stats.stddev_out =
      stats.n_out > 1
          ? std::sqrt(ss_out / static_cast<double>(stats.n_out - 1))
          : 0;

  // Lag-1 autocorrelation of the whole (mean-removed) series; perf
  // counters drift, which shrinks the information content of n samples.
  const double grand_mean =
      (sum_in + sum_out) / static_cast<double>(stats.n_in + stats.n_out);
  double num = 0;
  double den = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double d = metric(samples[i]) - grand_mean;
    den += d * d;
    if (i + 1 < samples.size()) {
      num += d * (metric(samples[i + 1]) - grand_mean);
    }
  }
  stats.lag1_autocorr = den > 0 ? num / den : 0;
  const double r1 = std::clamp(stats.lag1_autocorr, 0.0, 0.95);
  const double shrink = (1.0 - r1) / (1.0 + r1);
  const double n_in_eff =
      std::max(2.0, static_cast<double>(stats.n_in) * shrink);
  const double n_out_eff =
      std::max(2.0, static_cast<double>(stats.n_out) * shrink);

  const double var_term = stats.stddev_in * stats.stddev_in / n_in_eff +
                          stats.stddev_out * stats.stddev_out / n_out_eff;
  stats.welch_t = var_term > 0
                      ? (stats.mean_in - stats.mean_out) / std::sqrt(var_term)
                      : 0;
  if (stats.significant()) {
    significant_count.inc();
  }
  return stats;
}

}  // namespace mc::workload
