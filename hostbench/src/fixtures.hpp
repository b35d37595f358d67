// Shared set-up for the benchmark's workloads: seeded t=15 pools of both
// module formats, the attacks applied to them with their ground truth,
// benign guest-write weather, and the run's host measurements.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "modchecker/pipeline.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace hostbench {

/// The paper's pool size.
inline constexpr std::size_t kPoolSize = 15;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Derives an independent sub-seed (splitmix64 of seed ^ salt).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

using Rng = std::mt19937_64;

/// Uniform index in [0, n).
std::size_t pick(Rng& rng, std::size_t n);

/// Module name -> VMs whose verdict must be "not clean".  Modules not
/// listed must be clean on every VM.
using Truth = std::map<std::string, std::set<mc::vmm::DomainId>>;

/// One applied attack, kept for the report.
struct Infection {
  std::string attack;
  std::string module;
  mc::vmm::DomainId vm = 0;
};

/// One pool of either format: the environment that owns the guests, the
/// VMs and modules to scan, and what a correct scan reports.
struct Pool {
  std::string label;
  std::unique_ptr<mc::cloud::CloudEnvironment> pe;
  std::unique_ptr<mc::cloud::LinuxEnvironment> elf;
  std::vector<mc::vmm::DomainId> vms;
  std::vector<std::string> modules;
  Truth truth;
  std::vector<Infection> infections;

  mc::vmm::Hypervisor& hypervisor() {
    return pe ? pe->hypervisor() : elf->hypervisor();
  }
  mc::vmm::AddressSpace& address_space(mc::vmm::DomainId vm) {
    return pe ? pe->kernel(vm).address_space()
              : elf->kernel(vm).address_space();
  }
  /// Guest virtual address of every page of every loaded module.
  std::vector<std::uint32_t> module_pages(mc::vmm::DomainId vm) const;
};

/// A clean t=15 PE32 (Windows) or ELF64 (Linux) pool booted from `seed`.
Pool make_pe_pool(std::uint64_t seed, const std::string& label);
Pool make_elf_pool(std::uint64_t seed, const std::string& label);

/// Applies one detectable attack per module, each on a different VM (the
/// first on the reference VM, the rest on seeded VMs), never reverted;
/// records the ground truth.  PE32 pools get the
/// repository's attack classes (only those whose AttackResult says
/// detectable_by_modchecker); ELF64 pools get raw in-guest writes that
/// mirror the E1-E4 analogues of the ELF pool tests, since the repository
/// has no Linux attack classes.
///
/// kParseable leaves out the ELF magic corruption.  The fleet workload
/// needs that: IncrementalScanner::scan throws FormatError on an
/// unparseable copy (where scan_pool reports MODULE_UNPARSEABLE), and in
/// the coordinator the throw loses the sweep and ends the worker's loop.
/// unparseable_copy_defect() shows that defect on every fleet run.
enum class ElfAttacks { kAll, kParseable };
void infect_pe(Pool& pool, std::uint64_t seed);
void infect_elf(Pool& pool, std::uint64_t seed,
                ElfAttacks which = ElfAttacks::kAll);

/// True while IncrementalScanner::scan still throws on a pool holding an
/// unparseable copy instead of flagging it as scan_pool does.
bool unparseable_copy_defect();

/// A PE32 memory attack the event_ticks workload injects and restores.
struct MemoryAttack {
  std::string name;
  std::string module;  // the module it patches
  std::function<std::unique_ptr<mc::attacks::Attack>(const Pool&)> make;
};
const std::vector<MemoryAttack>& memory_attacks();
/// Applies `attack` to its module's copy on `vm`.  Throws if the attack is
/// not a detectable memory-only attack.
void apply_memory_attack(Pool& pool, const MemoryAttack& attack,
                         mc::vmm::DomainId vm);

/// True when every VM of the pool has a verdict and exactly the VMs in
/// `flagged` are not clean.
bool verdicts_match(const mc::core::PoolScanReport& report,
                    const std::vector<mc::vmm::DomainId>& pool,
                    const std::set<mc::vmm::DomainId>& flagged);
bool verdicts_match(const mc::core::PoolScanReport& report, const Pool& pool);

/// Benign same-value guest writes: each rewrites kWeatherBytes bytes of
/// one page with the bytes already there, through the guest's own
/// address space (the path GuestMemoryWriter::write takes).
inline constexpr std::size_t kWeatherBytes = 64;
struct WeatherStats {
  std::uint64_t pages = 0;
  std::int64_t write_ns = 0;  // host time inside the write calls only
  /// Mean host us per write call of each apply_weather batch (one sample
  /// per batch keeps memory flat however many pages a run writes).
  std::vector<double> batch_write_us;
};
struct PageRef {
  mc::vmm::DomainId vm = 0;
  std::uint32_t va = 0;
};
std::vector<PageRef> all_module_pages(const Pool& pool);
/// Rewrites `count` distinct seeded pages of `pages`.
void apply_weather(Pool& pool, const std::vector<PageRef>& pages,
                   std::size_t count, Rng& rng, WeatherStats& stats);

// ---- host measurements -------------------------------------------------------

/// Process CPU time (user + system, all threads), seconds.
double process_cpu_s();
/// Peak resident set size so far, MiB.
double peak_rss_mb();
std::string cpu_model();
unsigned host_cpus();

/// How long the untraced and traced phases of a run measure: a traced run
/// splits its time between the two so it can report tracing overhead.
struct Phases {
  double untraced_s = 0.0;
  double traced_s = 0.0;
};
Phases phases_for(const Options& opts);

/// Sets up a workload fixture kSetupRepeats times and keeps the last one;
/// setup_s is the median of the set-up times.
inline constexpr int kSetupRepeats = 7;
template <typename Fixture, typename Build>
std::unique_ptr<Fixture> repeated_setup(Build build, double& setup_s) {
  std::vector<double> times;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture.reset();
    const std::int64_t t0 = now_ns();
    fixture = build();
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  setup_s = summarize(times).p50;
  return fixture;
}

// ---- results -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one operation loop measured.
struct Phase {
  std::vector<double> op_ms;  // per operation, host wall clock
  std::uint64_t scans = 0;    // module pool-scans completed
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;  // peak RSS at the end of the phase
  /// The phase cut into windows of kWindowS measured seconds; rates are
  /// the median over windows, so a short burst of host noise moves them
  /// little.
  struct Window {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t scans = 0;
  };
  std::vector<Window> windows;

  /// Module pool-scans per measured second, and process CPU ms per scan.
  double scans_per_s() const;
  double cpu_ms_per_scan() const;
};

/// Measures a Phase: wall and process CPU time, less the regions the
/// workload excludes (guest-side work such as write weather).  A phase
/// runs for its time and then, up to three times it, until it has 1000
/// operations, the fewest for which p99 has ten samples beyond it.
class PhaseMeter {
 public:
  static constexpr double kWindowS = 0.5;
  static constexpr std::size_t kMinSamples = 1000;

  PhaseMeter(Phase& phase, double seconds);

  bool running() const;
  /// Excludes [exclude_begin, exclude_end) from wall and CPU time (only
  /// valid while no other thread of the process works).
  void exclude_begin();
  void exclude_end();
  /// Excludes CPU time spent by this thread alone.
  void exclude_cpu(double seconds) { excluded_cpu_s_ += seconds; }
  /// Records one finished operation.
  void done(double op_ms, std::uint64_t scans);
  void finish();

 private:
  double measured_wall_s() const;
  double measured_cpu_s() const;

  Phase* phase_;
  double seconds_;
  std::int64_t start_ns_;
  double cpu0_s_;
  double excluded_wall_s_ = 0.0;
  double excluded_cpu_s_ = 0.0;
  std::int64_t exclude_ns_ = 0;
  double exclude_cpu_ = 0.0;
  Phase::Window mark_;  // totals at the start of the open window
};

/// The end-to-end metrics every workload reports (BENCHMARK.json order).
std::vector<Metric> end_to_end(const Phase& phase, double setup_s);

struct RunResult {
  Tally tally;
  std::vector<Metric> e2e;     // printed as the result with --trace 0
  std::vector<Metric> layers;  // printed as the result with --trace 1
  std::vector<std::string> lines;  // human-readable report
};

/// Report lines naming every applied attack (the run's ground truth).
void add_infection_lines(RunResult& out, const std::vector<Pool>& pools);

/// Human-readable row helpers.
std::string row(const std::string& name, double value, const std::string& unit,
                const std::string& note = "");
/// Tracing overhead: prints traced minus untraced for every end-to-end
/// metric, and records the ones tracing can move as trace.overhead.*.
void add_trace_overhead(RunResult& out, std::map<std::string, double>& layers,
                        const Phase& untraced, const Phase& traced,
                        double setup_s);

/// Every per-layer metric name and unit, in BENCHMARK.json order.  A
/// workload fills the layers it exercises; the others report zero work.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();
std::vector<Metric> fill_layers(const std::map<std::string, double>& values);

}  // namespace hostbench
