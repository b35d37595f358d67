// Fault-domain overhead gate.
//
// The fault refactor put a retry loop and an injector check on the scan
// hot path; this bench proves the *disabled* machinery is free:
//
//   1. determinism — on a clean t=15 pool, the simulated costs and every
//      verdict are bit-identical whether the retry policy is present
//      (default), reduced to one attempt (the pre-refactor shape), or the
//      injector is armed with all-zero fault rates (gate open, dice
//      rolling, nothing faulting);
//   2. real time — the default configuration's wall-clock cost stays
//      within 2% of the single-attempt configuration: one warmed checker
//      per configuration, 400 interleaved rounds of one scan each, and the
//      median over rounds of the default scan over the single-attempt scan
//      of the same round (bench/interleaved.hpp), so machine noise hits
//      both sides alike.
//
// Exit status: non-zero on any verdict difference, simulated-cost
// difference, or overhead above the threshold — a CI regression gate like
// bench_ablation_fastpath.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "interleaved.hpp"
#include "cloud/environment.hpp"
#include "modchecker/modchecker.hpp"
#include "vmm/fault_injection.hpp"

namespace {

using namespace mc;

constexpr const char* kModule = "http.sys";  // largest catalog module
constexpr std::size_t kPoolSize = 15;        // the paper's t=15 point
constexpr double kMaxOverhead = 1.02;
constexpr int kRounds = 400;  // interleaved rounds, one scan per side each

core::ModCheckerConfig single_attempt_config() {
  core::ModCheckerConfig cfg;
  cfg.retry.max_attempts = 1;  // no retry loop iterations, ever
  return cfg;
}

bool same_scan(const core::PoolScanReport& a, const core::PoolScanReport& b) {
  if (a.verdicts.size() != b.verdicts.size() ||
      a.cpu_times.searcher != b.cpu_times.searcher ||
      a.cpu_times.parser != b.cpu_times.parser ||
      a.cpu_times.checker != b.cpu_times.checker ||
      a.wall_time != b.wall_time || !a.quarantined.empty() ||
      !b.quarantined.empty() || !a.faults.empty() || !b.faults.empty()) {
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

  std::printf("=== fault-domain overhead gate (module %s, t=%zu) ===\n",
              kModule, kPoolSize);

  // 1. Determinism: default vs single-attempt vs armed-with-zero-rates.
  const auto baseline = core::ModChecker(env.hypervisor(), {})
                            .scan_pool(kModule, env.guests());
  const auto single = core::ModChecker(env.hypervisor(),
                                       single_attempt_config())
                          .scan_pool(kModule, env.guests());
  for (const vmm::DomainId vm : env.guests()) {
    env.hypervisor().fault_injector().arm(vm, vmm::FaultProfile{});
  }
  const auto armed_zero = core::ModChecker(env.hypervisor(), {})
                              .scan_pool(kModule, env.guests());
  env.hypervisor().fault_injector().disarm_all();

  const bool identical =
      same_scan(baseline, single) && same_scan(baseline, armed_zero);
  std::printf("simulated costs bit-identical across configs: %s\n",
              identical ? "yes" : "NO");

  // 2. Real time: one warmed checker per configuration, timed scan by
  // scan in interleaved rounds.
  std::vector<std::unique_ptr<core::ModChecker>> checkers;
  checkers.push_back(std::make_unique<core::ModChecker>(
      env.hypervisor(), core::ModCheckerConfig{}));
  checkers.push_back(std::make_unique<core::ModChecker>(
      env.hypervisor(), single_attempt_config()));
  for (const auto& checker : checkers) {
    benchmark::DoNotOptimize(checker->scan_pool(kModule, env.guests()));
  }
  const std::vector<std::vector<double>> samples =
      mc::bench::interleaved_seconds(
          checkers.size(), kRounds, [&](std::size_t side) {
            core::PoolScanReport report;
            const double s = mc::bench::seconds_of([&] {
              report = checkers[side]->scan_pool(kModule, env.guests());
            });
            benchmark::DoNotOptimize(report);
            return s;
          });
  const double default_s = mc::bench::median(samples[0]);
  const double single_s = mc::bench::median(samples[1]);
  const double ratio = mc::bench::median_paired_ratio(samples, 0, 1);
  std::printf("median scan: default %.3f ms, single-attempt %.3f ms, "
              "paired ratio %.4f (required < %.2f)\n",
              default_s * 1e3, single_s * 1e3, ratio, kMaxOverhead);

  const bool pass = identical && ratio < kMaxOverhead;
  std::printf("=> %s\n", pass ? "PASS" : "FAIL");

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"fault_overhead\",\n"
                 "  \"module\": \"%s\",\n  \"pool_size\": %zu,\n"
                 "  \"sim_identical\": %s,\n"
                 "  \"default_ms\": %.6f,\n  \"single_attempt_ms\": %.6f,\n"
                 "  \"ratio\": %.6f,\n  \"max_ratio\": %.2f,\n"
                 "  \"pass\": %s\n}\n",
                 kModule, kPoolSize, identical ? "true" : "false",
                 default_s * 1e3, single_s * 1e3, ratio, kMaxOverhead,
                 pass ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}

void BM_CleanScanDefaultRetry(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cloud::CloudEnvironment env(cfg);
  core::ModChecker checker(env.hypervisor());
  for (auto _ : state) {
    auto report = checker.scan_pool(kModule, env.guests());
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CleanScanDefaultRetry)->Unit(benchmark::kMillisecond);

void BM_CleanScanSingleAttempt(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cloud::CloudEnvironment env(cfg);
  core::ModChecker checker(env.hypervisor(), single_attempt_config());
  for (auto _ : state) {
    auto report = checker.scan_pool(kModule, env.guests());
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CleanScanSingleAttempt)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fault_overhead.json";
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
