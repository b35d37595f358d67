// Performance tuning — the knobs a deployment would turn:
//
//   * sequential vs parallel pool access (`worker_threads` 1 vs 8; the
//     paper's proposed extension),
//   * digest algorithm (paper's MD5 vs hardened SHA-256),
//   * behaviour under guest load (the Fig. 8 contention regime).
//
// Build & run:  ./build/examples/perf_tuning
#include <cstdio>

#include "cloud/environment.hpp"
#include "modchecker/modchecker.hpp"
#include "workload/heavyload.hpp"

namespace {

using namespace mc;

double run_once(cloud::CloudEnvironment& env, bool parallel,
                crypto::HashAlgorithm algorithm) {
  core::ModCheckerConfig cfg;
  cfg.worker_threads = parallel ? 8 : 1;
  cfg.algorithm = algorithm;
  core::ModChecker checker(env.hypervisor(), cfg);
  const auto report = checker.check_module(env.guests()[0], "http.sys");
  return to_ms(report.wall_time);
}

}  // namespace

int main() {
  using namespace mc;

  cloud::CloudConfig config;
  config.guest_count = 15;
  cloud::CloudEnvironment env(config);
  workload::HeavyLoad heavyload(env);

  std::printf("=== ModChecker tuning matrix (15 guests, http.sys, simulated "
              "wall ms) ===\n");
  std::printf("%-22s %12s %12s\n", "configuration", "idle", "heavy-load");

  struct Config {
    const char* name;
    bool parallel;
    crypto::HashAlgorithm algorithm;
  };
  const Config configs[] = {
      {"sequential + md5", false, crypto::HashAlgorithm::kMd5},
      {"sequential + sha256", false, crypto::HashAlgorithm::kSha256},
      {"parallel   + md5", true, crypto::HashAlgorithm::kMd5},
      {"parallel   + sha256", true, crypto::HashAlgorithm::kSha256},
  };

  for (const auto& c : configs) {
    heavyload.stop_all();
    const double idle_ms = run_once(env, c.parallel, c.algorithm);
    heavyload.stress_guests(env.guests().size());
    const double loaded_ms = run_once(env, c.parallel, c.algorithm);
    std::printf("%-22s %12.3f %12.3f\n", c.name, idle_ms, loaded_ms);
  }
  heavyload.stop_all();

  std::printf("\nReading the matrix: parallel access flattens the linear "
              "growth of Fig. 7;\nheavy load inflates everything by the "
              "Fig. 8 contention factor; the digest\nchoice is a minor cost "
              "next to page-wise extraction.\n");
  return 0;
}
