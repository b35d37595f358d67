// Telemetry overhead gate.
//
// The telemetry substrate put counters, histograms and (optionally) span
// recording on the scan hot path; this bench proves the observability is
// close to free:
//
//   1. determinism — on a clean t=15 pool, the simulated costs and every
//      verdict are bit-identical whether metrics land on a live registry
//      (default), the disabled sentinel registry, or a live registry plus
//      an active TraceRecorder — telemetry never charges simulated time;
//   2. real time — relative to the disabled-registry configuration, a live
//      registry stays within 2% wall clock and a live registry + tracer
//      within 5%: one warmed checker per configuration, 400 interleaved
//      rounds of one scan each, and the median over rounds of each side's
//      scan over the disabled side's scan of the same round
//      (bench/interleaved.hpp), so machine noise hits every side alike.
//
// Exit status: non-zero on any verdict difference, simulated-cost
// difference, or overhead above the thresholds — a CI regression gate like
// bench_fault_overhead.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "interleaved.hpp"
#include "cloud/environment.hpp"
#include "modchecker/modchecker.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace mc;

constexpr const char* kModule = "http.sys";  // largest catalog module
constexpr std::size_t kPoolSize = 15;        // the paper's t=15 point
constexpr double kMaxMetricsOverhead = 1.02;
constexpr double kMaxTracedOverhead = 1.05;
constexpr int kRounds = 400;  // interleaved rounds, one scan per side each

core::ModCheckerConfig disabled_config() {
  core::ModCheckerConfig cfg;
  cfg.metrics = &telemetry::MetricRegistry::disabled();
  return cfg;
}

bool same_scan(const core::PoolScanReport& a, const core::PoolScanReport& b) {
  if (a.verdicts.size() != b.verdicts.size() ||
      a.cpu_times.searcher != b.cpu_times.searcher ||
      a.cpu_times.parser != b.cpu_times.parser ||
      a.cpu_times.checker != b.cpu_times.checker ||
      a.wall_time != b.wall_time || !a.quarantined.empty() ||
      !b.quarantined.empty()) {
    return false;
  }
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    if (a.verdicts[i].clean != b.verdicts[i].clean ||
        a.verdicts[i].successes != b.verdicts[i].successes ||
        a.verdicts[i].total != b.verdicts[i].total ||
        !a.verdicts[i].clean) {  // clean pool: everything must be clean
      return false;
    }
  }
  return true;
}

int run_gate(const std::string& json_path) {
  cloud::CloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cloud::CloudEnvironment env(cfg);

  std::printf("=== telemetry overhead gate (module %s, t=%zu) ===\n",
              kModule, kPoolSize);

  // 1. Determinism: disabled registry vs live registry vs live + tracer.
  const auto disabled = core::ModChecker(env.hypervisor(), disabled_config())
                            .scan_pool(kModule, env.guests());
  telemetry::MetricRegistry live_registry;
  core::ModCheckerConfig live_cfg;
  live_cfg.metrics = &live_registry;
  const auto live = core::ModChecker(env.hypervisor(), live_cfg)
                        .scan_pool(kModule, env.guests());
  telemetry::MetricRegistry traced_registry;
  telemetry::TraceRecorder recorder;
  core::ModCheckerConfig traced_cfg;
  traced_cfg.metrics = &traced_registry;
  traced_cfg.tracer = &recorder;
  const auto traced = core::ModChecker(env.hypervisor(), traced_cfg)
                          .scan_pool(kModule, env.guests());

  const bool identical =
      same_scan(disabled, live) && same_scan(disabled, traced);
  std::printf("simulated costs bit-identical across configs: %s\n",
              identical ? "yes" : "NO");
  std::printf("tracer recorded %zu spans\n", recorder.completed());

  // 2. Real time: one warmed checker per configuration (a service holds
  // its registry and tracer), timed scan by scan in interleaved rounds.
  telemetry::MetricRegistry timed_metrics;
  telemetry::MetricRegistry timed_traced_metrics;
  telemetry::TraceRecorder timed_recorder;
  core::ModCheckerConfig metrics_cfg;
  metrics_cfg.metrics = &timed_metrics;
  core::ModCheckerConfig traced_timing_cfg;
  traced_timing_cfg.metrics = &timed_traced_metrics;
  traced_timing_cfg.tracer = &timed_recorder;
  std::vector<std::unique_ptr<core::ModChecker>> checkers;
  checkers.push_back(
      std::make_unique<core::ModChecker>(env.hypervisor(), disabled_config()));
  checkers.push_back(
      std::make_unique<core::ModChecker>(env.hypervisor(), metrics_cfg));
  checkers.push_back(
      std::make_unique<core::ModChecker>(env.hypervisor(), traced_timing_cfg));
  for (const auto& checker : checkers) {
    benchmark::DoNotOptimize(checker->scan_pool(kModule, env.guests()));
  }
  timed_recorder.drain();
  const std::vector<std::vector<double>> samples =
      mc::bench::interleaved_seconds(
          checkers.size(), kRounds, [&](std::size_t side) {
            core::PoolScanReport report;
            const double s = mc::bench::seconds_of([&] {
              report = checkers[side]->scan_pool(kModule, env.guests());
            });
            benchmark::DoNotOptimize(report);
            timed_recorder.drain();  // a real consumer drains, off the clock
            return s;
          });
  const double off_s = mc::bench::median(samples[0]);
  const double metrics_s = mc::bench::median(samples[1]);
  const double traced_s = mc::bench::median(samples[2]);
  const double metrics_ratio = mc::bench::median_paired_ratio(samples, 1, 0);
  const double traced_ratio = mc::bench::median_paired_ratio(samples, 2, 0);
  std::printf("median scan: disabled %.3f ms, metrics %.3f ms (paired "
              "ratio %.4f, "
              "required < %.2f), metrics+tracer %.3f ms (ratio %.4f, "
              "required < %.2f)\n",
              off_s * 1e3, metrics_s * 1e3, metrics_ratio,
              kMaxMetricsOverhead, traced_s * 1e3, traced_ratio,
              kMaxTracedOverhead);

  const bool pass = identical && metrics_ratio < kMaxMetricsOverhead &&
                    traced_ratio < kMaxTracedOverhead;
  std::printf("=> %s\n", pass ? "PASS" : "FAIL");

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"telemetry_overhead\",\n"
                 "  \"module\": \"%s\",\n  \"pool_size\": %zu,\n"
                 "  \"sim_identical\": %s,\n"
                 "  \"disabled_ms\": %.6f,\n  \"metrics_ms\": %.6f,\n"
                 "  \"traced_ms\": %.6f,\n"
                 "  \"metrics_ratio\": %.6f,\n  \"max_metrics_ratio\": %.2f,\n"
                 "  \"traced_ratio\": %.6f,\n  \"max_traced_ratio\": %.2f,\n"
                 "  \"pass\": %s\n}\n",
                 kModule, kPoolSize, identical ? "true" : "false",
                 off_s * 1e3, metrics_s * 1e3, traced_s * 1e3, metrics_ratio,
                 kMaxMetricsOverhead, traced_ratio, kMaxTracedOverhead,
                 pass ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}

void BM_CleanScanDisabledRegistry(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cloud::CloudEnvironment env(cfg);
  core::ModChecker checker(env.hypervisor(), disabled_config());
  for (auto _ : state) {
    auto report = checker.scan_pool(kModule, env.guests());
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CleanScanDisabledRegistry)->Unit(benchmark::kMillisecond);

void BM_CleanScanLiveRegistry(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cloud::CloudEnvironment env(cfg);
  telemetry::MetricRegistry registry;
  core::ModCheckerConfig mc_cfg;
  mc_cfg.metrics = &registry;
  core::ModChecker checker(env.hypervisor(), mc_cfg);
  for (auto _ : state) {
    auto report = checker.scan_pool(kModule, env.guests());
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CleanScanLiveRegistry)->Unit(benchmark::kMillisecond);

void BM_CleanScanTraced(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cloud::CloudEnvironment env(cfg);
  telemetry::MetricRegistry registry;
  telemetry::TraceRecorder recorder;
  core::ModCheckerConfig mc_cfg;
  mc_cfg.metrics = &registry;
  mc_cfg.tracer = &recorder;
  core::ModChecker checker(env.hypervisor(), mc_cfg);
  for (auto _ : state) {
    auto report = checker.scan_pool(kModule, env.guests());
    benchmark::DoNotOptimize(report);
    recorder.drain();  // a real consumer drains; unbounded growth is unfair
  }
}
BENCHMARK(BM_CleanScanTraced)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_telemetry_overhead.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.empty() && arg[0] != '-') {
      json_path = arg;
      break;
    }
  }
  const int rc = run_gate(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return rc;
}
