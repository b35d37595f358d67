// A1 — parallel pool scan ablation.
//
// The paper (§V-C.1) attributes Fig. 7's linear growth to sequential VM
// access and notes: "The modular design of ModChecker can support parallel
// access of virtual machines' memory which would considerably enhance the
// runtime performance."  This bench implements that extension and
// quantifies it: simulated wall time of sequential vs parallel pool scans
// as the pool grows.  Parallel wall time should stay near-flat (critical
// path = slowest single VM) while sequential grows linearly.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "cloud/environment.hpp"
#include "modchecker/modchecker.hpp"

namespace {

using namespace mc;

constexpr const char* kModule = "http.sys";

void print_table() {
  cloud::CloudConfig cfg;
  cfg.guest_count = 15;
  cloud::CloudEnvironment env(cfg);

  core::ModChecker sequential(env.hypervisor());

  core::ModCheckerConfig par_cfg;
  par_cfg.worker_threads = 8;  // one per virtual core of the testbed
  core::ModChecker parallel(env.hypervisor(), par_cfg);

  std::printf("=== A1: sequential vs parallel pool access (module %s) ===\n",
              kModule);
  std::printf("%-5s %18s %18s %10s\n", "VMs", "sequential[ms]",
              "parallel[ms]", "speedup");
  double last_seq = 0, last_par = 0;
  for (std::size_t n = 2; n <= env.guests().size(); ++n) {
    std::vector<vmm::DomainId> others(env.guests().begin() + 1,
                                      env.guests().begin() +
                                          static_cast<std::ptrdiff_t>(n));
    const auto seq = sequential.check_module(env.guests()[0], kModule, others);
    const auto par = parallel.check_module(env.guests()[0], kModule, others);
    last_seq = to_ms(seq.wall_time);
    last_par = to_ms(par.wall_time);
    std::printf("%-5zu %18.3f %18.3f %9.2fx\n", n, last_seq, last_par,
                last_seq / last_par);
  }
  std::printf("\nShape checks:\n");
  std::printf("  speedup at 15 VMs: %.2fx (expect approaching pool size /"
              " critical path)\n\n",
              last_seq / last_par);
}

void BM_SequentialScan(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 15;
  cloud::CloudEnvironment env(cfg);
  core::ModChecker checker(env.hypervisor());
  for (auto _ : state) {
    auto report = checker.check_module(env.guests()[0], kModule);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SequentialScan)->Unit(benchmark::kMillisecond);

void BM_ParallelScan(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 15;
  cloud::CloudEnvironment env(cfg);
  core::ModCheckerConfig mcfg;
  mcfg.worker_threads = 8;
  core::ModChecker checker(env.hypervisor(), mcfg);
  for (auto _ : state) {
    auto report = checker.check_module(env.guests()[0], kModule);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_ParallelScan)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
