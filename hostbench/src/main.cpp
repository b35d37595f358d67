// Host-clock benchmark of modchecker.
//
//   hostbench --workload pool_scan|event_ticks|fleet|all --seed N
//             --seconds S --trace 0|1
//   hostbench --selftest
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when any
// verdict differs from ground truth.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "util/log.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

const char* layer_group(const std::string& metric) {
  const std::string prefix = metric.substr(0, metric.find('.'));
  if (prefix == "acquire") return "vmi (AcquireStage open/extract)";
  if (prefix == "parse") return "pe/elf (ParseStage::parse)";
  if (prefix == "normalize") return "modchecker (NormalizeStage::canonicalize)";
  if (prefix == "crypto") return "crypto (MD5 of the same items)";
  if (prefix == "compare") return "modchecker (CompareStage::compare)";
  if (prefix == "vote" || prefix == "report")
    return "modchecker (VoteStage::finalize, to_json)";
  if (prefix == "incremental") return "modchecker (IncrementalScanner::scan)";
  if (prefix == "vmm") return "vmm (guest write path)";
  if (prefix == "service") return "service (ShardCoordinator)";
  return "tracing";
}

void print_json_metrics(const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.value, metrics[i].second.unit.c_str());
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload pool_scan|event_ticks|fleet|all "
               "--seed N --seconds S --trace 0|1\n"
               "       hostbench --selftest\n");
  return 2;
}

RunResult run_one(const Options& opts) {
  if (opts.workload == "pool_scan") return run_pool_scan(opts);
  if (opts.workload == "event_ticks") return run_event_ticks(opts);
  return run_fleet(opts);
}

int run(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const int failed = run_selftest();
      std::printf("selftest: %s\n", failed == 0 ? "ok" : "FAILED");
      return failed == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = value == "pool_scan" || value == "event_ticks" ||
                      value == "fleet" || value == "all";
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload || !(opts.seconds > 0)) {
    return usage();
  }
  mc::set_log_level(mc::LogLevel::kWarn);

  std::printf("hostbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  std::printf("provenance: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
              host_cpus(), cpu_model().c_str(), HOSTBENCH_COMPILER,
              HOSTBENCH_BUILD_TYPE);

  const std::vector<std::string> names =
      opts.workload == "all"
          ? std::vector<std::string>{"pool_scan", "event_ticks", "fleet"}
          : std::vector<std::string>{opts.workload};
  Tally total;
  std::vector<std::pair<std::string, Metric>> result;
  for (const std::string& name : names) {
    Options one = opts;
    one.workload = name;
    const RunResult r = run_one(one);
    total.attempted += r.tally.attempted;
    total.failed += r.tally.failed;
    std::printf("== %s\n", name.c_str());
    for (const std::string& line : r.lines) {
      std::printf("%s\n", line.c_str());
    }
    std::printf("end-to-end metrics (the result of a --trace 0 run):\n");
    for (const Metric& m : r.e2e) {
      std::printf("%s\n", row(m.name, m.value, m.unit).c_str());
    }
    std::printf("%s\n", row("failed_frac", r.tally.failed_frac(), "ratio",
                            std::to_string(r.tally.failed) + " of " +
                                std::to_string(r.tally.attempted) +
                                " scans/ticks/sweeps")
                            .c_str());
    const std::vector<Metric>& chosen = opts.trace ? r.layers : r.e2e;
    if (opts.trace) {
      std::string group;
      for (const Metric& m : r.layers) {
        if (group != layer_group(m.name)) {
          group = layer_group(m.name);
          std::printf("per layer: %s\n", group.c_str());
        }
        std::printf("%s\n", row(m.name, m.value, m.unit).c_str());
      }
    }
    for (const Metric& m : chosen) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
        return 1;
      }
      result.emplace_back(names.size() == 1 ? m.name : name + "/" + m.name, m);
    }
  }
  const bool correct = total.failed == 0 && total.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed));
  print_json_metrics(result);
  std::printf("}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  try {
    return hostbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
