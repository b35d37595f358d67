// The benchmark's workloads and its harness self-test.
#pragma once

#include "fixtures.hpp"

namespace hostbench {

/// Closed loop of fresh ModChecker::scan_pool calls over four pools.
RunResult run_pool_scan(const Options& opts);
/// Closed loop of IncrementalScanner ticks under guest write weather.
RunResult run_event_ticks(const Options& opts);
/// Closed loop of one-shot sweeps through a ShardCoordinator.
RunResult run_fleet(const Options& opts);

/// Checks the harness's own arithmetic on synthetic inputs; returns the
/// number of failed checks (each printed to stderr).
int run_selftest();

}  // namespace hostbench
