// modchecker — command-line driver for the simulated cloud.
//
// Subcommands:
//   check   --module M [--subject N] [--guests G] [--parallel] [--algo A]
//   audit   [--guests G] [--parallel]
//   scan    --module M [--guests G]           (pool scan, per-VM verdicts)
//   monitor [--guests G] [--horizon MS]       (scheduler over all modules)
//   attack  --module M --attack T [--victim N] then re-check
//   list    [--guests G]                      (loader list of Dom1)
//   validate --module M                       (PE validator on golden file)
//   fleet   [--pools P] [--repeat R]
//           (fleet service: run P pools' recurring sweeps through one
//           queue; exits nonzero if any sweep was lost)
//
// Everything runs against a freshly built deterministic environment; the
// tool exists to make the library explorable without writing code.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "attacks/dkom_hide.hpp"
#include "attacks/dll_import_inject.hpp"
#include "attacks/header_tamper.hpp"
#include "attacks/iat_hook.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/stub_patch.hpp"
#include "cloud/environment.hpp"
#include <fstream>

#include "modchecker/audit.hpp"
#include "modchecker/forensics.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/report.hpp"
#include "modchecker/report_json.hpp"
#include "modchecker/scheduler.hpp"
#include "modchecker/searcher.hpp"
#include "pe/constants.hpp"
#include "pe/parser.hpp"
#include "pe/resources.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "vmi/dump.hpp"
#include "pe/validate.hpp"
#include "service/coordinator.hpp"
#include "vmi/session.hpp"
#include "vmm/fault_injection.hpp"

namespace {

using namespace mc;

struct Options {
  std::string command;
  std::string module = "hal.dll";
  std::string attack = "inline-hook";
  std::string algorithm = "md5";
  std::string format = "auto";  // auto | pe32 | elf64
  std::size_t guests = 15;
  std::size_t subject = 1;  // Dom index (1-based, as in the paper)
  std::size_t victim = 1;
  std::uint64_t horizon_ms = 10000;
  bool parallel = false;
  bool json = false;
  std::string file;  // dump file path for dump/checkdump
  // Fault-injection quickstart: --fault-rate arms the hypervisor's
  // injector before the command runs (see DESIGN.md §8).
  double fault_rate = 0.0;        // per-read fault probability
  std::size_t fault_victim = 0;   // Dom number; 0 = every guest
  std::uint64_t fault_seed = 1;   // deterministic per-domain stream seed
  // Observability: registry snapshot / Chrome trace written after the
  // command runs (see DESIGN.md §9).
  std::string telemetry_out;
  std::string trace_out;
  // Fleet quickstart (see DESIGN.md §14).
  std::size_t pools = 4;
  std::size_t repeat = 3;
};

void usage() {
  std::printf(
      "usage: modchecker_cli <command> [options]\n"
      "commands: check | scan | audit | monitor | attack | list | validate\n"
      "          dump | checkdump | fleet\n"
      "options:\n"
      "  --module <name>     target module (default hal.dll)\n"
      "  --guests <n>        pool size (default 15)\n"
      "  --subject <n>       subject Dom number (default 1)\n"
      "  --victim <n>        victim Dom number for 'attack' (default 1)\n"
      "  --attack <type>     opcode-replace | inline-hook | stub-patch |\n"
      "                      dll-inject | iat-hook | header-tamper | dkom\n"
      "  --algo <hash>       md5 | sha1 | sha256 (default md5)\n"
      "  --format <fmt>      auto | pe32 | elf64 (default auto: sniff the\n"
      "                      image header per module)\n"
      "  --horizon <ms>      simulated monitor horizon (default 10000)\n"
      "  --parallel          use the parallel pool-scan engine\n"
      "  --json              machine-readable output (check/scan/audit)\n"
      "  --file <path>       dump file for dump/checkdump\n"
      "  --fault-rate <p>    inject guest read faults with probability p\n"
      "                      (0..1; try: scan --fault-rate 1 "
      "--fault-victim 3)\n"
      "  --fault-victim <n>  Dom number to inject into (default: all)\n"
      "  --fault-seed <s>    fault-injection RNG seed (default 1)\n"
      "  --telemetry-out <f> write a metric-registry JSON snapshot to f\n"
      "  --trace-out <f>     write a Chrome trace (chrome://tracing) to f\n"
      "  --pools <n>         fleet: pool count (default 4)\n"
      "  --repeat <n>        fleet: runs per sweep (default 3)\n");
}

std::unique_ptr<attacks::Attack> make_attack(const std::string& name) {
  if (name == "opcode-replace") {
    return std::make_unique<attacks::OpcodeReplaceAttack>();
  }
  if (name == "inline-hook") {
    return std::make_unique<attacks::InlineHookAttack>();
  }
  if (name == "stub-patch") {
    return std::make_unique<attacks::StubPatchAttack>();
  }
  if (name == "dll-inject") {
    return std::make_unique<attacks::DllImportInjectAttack>();
  }
  if (name == "iat-hook") {
    return std::make_unique<attacks::IatHookAttack>();
  }
  if (name == "header-tamper") {
    return std::make_unique<attacks::HeaderTamperAttack>();
  }
  if (name == "dkom") {
    return std::make_unique<attacks::DkomHideAttack>();
  }
  throw InvalidArgument("unknown attack: " + name);
}

core::ModCheckerConfig make_config(const Options& options,
                                   telemetry::TraceRecorder* tracer = nullptr) {
  core::ModCheckerConfig cfg;
  cfg.algorithm = crypto::parse_hash_algorithm(options.algorithm);
  cfg.format = core::parse_module_format(options.format);
  cfg.parallel = options.parallel;
  cfg.tracer = tracer;
  return cfg;
}

// `fleet`: the fleet service end to end.  P pools (each its own
// deterministic cloud) share one queue and its workers; every pool gets
// one recurring sweep.  The exit code proves no sweep was lost (expected =
// pools × repeat completed runs).
int run_fleet(const Options& options, telemetry::TraceRecorder* tracer) {
  MC_CHECK(options.pools >= 1, "--pools must be >= 1");
  MC_CHECK(options.repeat >= 1, "--repeat must be >= 1");
  service::CoordinatorConfig cfg;
  cfg.tracer = tracer;
  service::ShardCoordinator coordinator(cfg);

  std::vector<std::unique_ptr<cloud::CloudEnvironment>> pools;
  pools.reserve(options.pools);
  for (std::size_t p = 0; p < options.pools; ++p) {
    cloud::CloudConfig cloud_cfg;
    cloud_cfg.guest_count = options.guests;
    pools.push_back(std::make_unique<cloud::CloudEnvironment>(cloud_cfg));
    coordinator.add_pool(
        pools.back()->hypervisor(),
        std::vector<vmm::DomainId>(pools.back()->guests()),
        make_config(options, tracer));
  }
  coordinator.start();

  for (std::size_t p = 0; p < options.pools; ++p) {
    service::SweepSpec spec;
    spec.name = "pool-" + std::to_string(p);
    spec.pool_index = p;
    spec.modules = {options.module};
    spec.repeat = options.repeat;
    spec.cadence = sim_ms(100);
    MC_CHECK(coordinator.submit(std::move(spec)) != 0, "submit refused");
  }
  coordinator.drain();

  const auto stats = coordinator.stats();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(options.pools) *
      static_cast<std::uint64_t>(options.repeat);
  const std::uint64_t lost =
      expected - std::min(expected, stats.completed_runs);
  std::printf("fleet: %zu pool(s) x %zu run(s)\n", options.pools,
              options.repeat);
  std::printf("completed %llu/%llu  lost %llu\n",
              static_cast<unsigned long long>(stats.completed_runs),
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(lost));
  return lost == 0 ? 0 : 2;
}

int run(const Options& options, telemetry::TraceRecorder* tracer) {
  if (options.command == "fleet") {
    return run_fleet(options, tracer);
  }

  cloud::CloudConfig cloud_cfg;
  cloud_cfg.guest_count = options.guests;
  cloud::CloudEnvironment env(cloud_cfg);
  const auto& guests = env.guests();
  MC_CHECK(options.subject >= 1 && options.subject <= guests.size(),
           "subject out of range");
  const vmm::DomainId subject = guests[options.subject - 1];

  if (options.fault_rate > 0.0) {
    MC_CHECK(options.fault_rate <= 1.0, "--fault-rate must be in [0, 1]");
    MC_CHECK(options.fault_victim <= guests.size(),
             "fault victim out of range");
    vmm::FaultProfile profile;
    profile.read_fault_rate = options.fault_rate;
    profile.seed = options.fault_seed;
    vmm::FaultInjector& injector = env.hypervisor().fault_injector();
    if (options.fault_victim == 0) {
      for (const vmm::DomainId vm : guests) {
        injector.arm(vm, profile);
      }
    } else {
      injector.arm(guests[options.fault_victim - 1], profile);
    }
  }

  if (options.command == "check") {
    core::ModChecker checker(env.hypervisor(), make_config(options, tracer));
    const auto report = checker.check_module(subject, options.module);
    std::printf("%s", options.json
                          ? (core::to_json(report) + "\n").c_str()
                          : core::format_report(report).c_str());
    return report.subject_clean ? 0 : 2;
  }

  if (options.command == "scan") {
    core::ModChecker checker(env.hypervisor(), make_config(options, tracer));
    const auto report = checker.scan_pool(options.module, guests);
    std::printf("%s", options.json
                          ? (core::to_json(report) + "\n").c_str()
                          : core::format_pool_report(report).c_str());
    return 0;
  }

  if (options.command == "audit") {
    const auto report = core::audit_modules(
        env.hypervisor(), env.config().load_order, guests,
        make_config(options, tracer));
    std::printf("%s", options.json
                          ? (core::to_json(report) + "\n").c_str()
                          : core::format_audit_report(report).c_str());
    return report.findings.empty() ? 0 : 2;
  }

  if (options.command == "dump") {
    MC_CHECK(!options.file.empty(), "dump needs --file <path>");
    const Bytes dump = vmi::dump_domain(env.hypervisor(), subject);
    std::ofstream out(options.file, std::ios::binary);
    MC_CHECK(out.good(), "cannot open output file");
    // ofstream::write takes char*; this is host file I/O, not guest data.
    // mc-lint: allow(raw-reinterpret-cast)
    out.write(reinterpret_cast<const char*>(dump.data()),
              static_cast<std::streamsize>(dump.size()));
    std::printf("wrote %zu bytes (Dom%u memory capture) to %s\n",
                dump.size(), subject, options.file.c_str());
    return 0;
  }

  if (options.command == "checkdump") {
    MC_CHECK(!options.file.empty(), "checkdump needs --file <path>");
    std::ifstream in(options.file, std::ios::binary);
    MC_CHECK(in.good(), "cannot open dump file");
    Bytes dump((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());

    const vmi::DumpAnalysis analysis(dump);
    SimClock clock;
    vmi::VmiSession session(analysis.hypervisor(), analysis.domain_id(),
                            clock);
    // Offline dump triage is a diagnostic walk, not an integrity check.
    core::ModuleSearcher searcher(session);  // mc-lint: allow(pipeline-bypass)
    std::printf("offline analysis of %s:\n", options.file.c_str());
    for (const auto& m : searcher.list_modules()) {
      std::printf("  %08x  %7u bytes  %-14s", m.base, m.size_of_image,
                  m.name.c_str());
      const auto image = searcher.extract_module(m.name);
      // Dump triage inspects the raw PE on purpose; mc-lint: allow(format-bypass)
      const pe::ParsedImage parsed(image->bytes);
      const auto& dir =
          parsed.optional_header().DataDirectories[pe::kDirResource];
      if (dir.VirtualAddress != 0) {
        const auto v =
            pe::parse_version_resource(image->bytes, dir.VirtualAddress);
        if (v) {
          std::printf(" v%u.%u.%u.%u", v->file_major, v->file_minor,
                      v->file_build, v->file_revision);
        }
      }
      std::printf("\n");
    }
    return 0;
  }

  if (options.command == "monitor") {
    core::ScanScheduler scheduler(env.hypervisor(),
                                  std::vector<vmm::DomainId>(guests),
                                  make_config(options, tracer));
    SimNanos phase = 0;
    for (const auto& module : env.config().load_order) {
      scheduler.add_policy({module, sim_ms(2000), phase});
      phase += sim_ms(150);
    }
    const auto report = scheduler.run_until(sim_ms(options.horizon_ms));
    std::printf("%s", core::format_schedule_report(report).c_str());
    return 0;
  }

  if (options.command == "attack") {
    MC_CHECK(options.victim >= 1 && options.victim <= guests.size(),
             "victim out of range");
    const vmm::DomainId victim = guests[options.victim - 1];
    const auto attack = make_attack(options.attack);
    const auto result = attack->apply(env, victim, options.module);
    std::printf("applied: %s\n%s\n\n", result.attack_name.c_str(),
                result.description.c_str());

    core::ModChecker checker(env.hypervisor(), make_config(options, tracer));
    const auto report = checker.check_module(victim, options.module);
    std::printf("%s", core::format_report(report).c_str());

    // Forensic drill-down against a clean peer, like an analyst would.
    if (!report.subject_clean && !report.comparisons.empty()) {
      SimClock clock;
      // mc-lint: allow(pipeline-bypass)
      const core::ModuleParser parser;
      vmi::VmiSession vs(env.hypervisor(), victim, clock);
      vmi::VmiSession rs(env.hypervisor(),
                         victim == guests[0] ? guests[1] : guests[0], clock);
      const auto vimg =
          // mc-lint: allow(pipeline-bypass)
          core::ModuleSearcher(vs).extract_module(options.module);
      const auto rimg =
          // mc-lint: allow(pipeline-bypass)
          core::ModuleSearcher(rs).extract_module(options.module);
      if (vimg && rimg) {
        const auto sub = parser.parse(*vimg, clock);
        const auto ref = parser.parse(*rimg, clock);
        for (const auto& f : core::analyze_all_flagged(sub, ref)) {
          std::printf("\n%s", core::format_forensic_report(f).c_str());
        }
      }
    }
    return report.subject_clean ? 0 : 2;
  }

  if (options.command == "list") {
    SimClock clock;
    vmi::VmiSession session(env.hypervisor(), subject, clock);
    core::ModuleSearcher searcher(session);  // mc-lint: allow(pipeline-bypass)
    std::printf("modules on Dom%u (via introspection):\n", subject);
    for (const auto& m : searcher.list_modules()) {
      std::printf("  %08x  %7u bytes  %s\n", m.base, m.size_of_image,
                  m.name.c_str());
    }
    std::printf("(introspection cost: %s simulated)\n",
                format_sim_nanos(clock.now()).c_str());
    return 0;
  }

  if (options.command == "validate") {
    const auto report =
        pe::validate_image_file(env.golden().file(options.module));
    std::printf("%s", pe::format_validation_report(report).c_str());
    return report.ok() ? 0 : 2;
  }

  usage();
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  Options options;
  options.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw mc::InvalidArgument("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--module") {
        options.module = next();
      } else if (arg == "--guests") {
        options.guests = std::stoul(next());
      } else if (arg == "--subject") {
        options.subject = std::stoul(next());
      } else if (arg == "--victim") {
        options.victim = std::stoul(next());
      } else if (arg == "--attack") {
        options.attack = next();
      } else if (arg == "--algo") {
        options.algorithm = next();
      } else if (arg == "--format") {
        options.format = next();
      } else if (arg == "--horizon") {
        options.horizon_ms = std::stoull(next());
      } else if (arg == "--parallel") {
        options.parallel = true;
      } else if (arg == "--json") {
        options.json = true;
      } else if (arg == "--file") {
        options.file = next();
      } else if (arg == "--fault-rate") {
        options.fault_rate = std::stod(next());
      } else if (arg == "--fault-victim") {
        options.fault_victim = std::stoul(next());
      } else if (arg == "--fault-seed") {
        options.fault_seed = std::stoull(next());
      } else if (arg == "--telemetry-out") {
        options.telemetry_out = next();
      } else if (arg == "--trace-out") {
        options.trace_out = next();
      } else if (arg == "--pools") {
        options.pools = std::stoul(next());
      } else if (arg == "--repeat") {
        options.repeat = std::stoul(next());
      } else {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        usage();
        return 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad argument: %s\n", e.what());
      return 1;
    }
  }

  try {
    // The recorder (when asked for) outlives the command so the artifacts
    // capture everything, including error paths up to the throw.
    std::unique_ptr<mc::telemetry::TraceRecorder> recorder;
    if (!options.trace_out.empty()) {
      recorder = std::make_unique<mc::telemetry::TraceRecorder>();
    }
    const int rc = run(options, recorder.get());
    if (!options.telemetry_out.empty()) {
      std::ofstream out(options.telemetry_out);
      MC_CHECK(out.good(), "cannot open --telemetry-out file");
      out << mc::telemetry::to_json(
                 mc::telemetry::MetricRegistry::process_default().snapshot())
          << '\n';
    }
    if (recorder) {
      std::ofstream out(options.trace_out);
      MC_CHECK(out.good(), "cannot open --trace-out file");
      mc::telemetry::write_chrome_trace(out, recorder->drain());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
