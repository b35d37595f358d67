// Staged check pipeline — the single implementation of the paper's
// acquire → parse → normalize → compare → vote → report flow.
//
// Each stage is a small object over a shared CheckContext, and every
// verdict entry point (ModChecker's check and scan methods, the
// IncrementalScanner, the fleet service sweeps) calls one verdict driver:
// `check` is the subject's row of the pair loop `pool_scan` runs over the
// whole pool.  Both take one electorate (each VM once, the subject first),
// one acquire round over it (billing, faults, quarantine, peers answered),
// credit the same PoolVmVerdict tallies from their pairs, and vote in
// VoteStage::finalize.  A scan cache (incremental.hpp) changes how
// pool_scan acquires and normalizes, not which loop it runs.
//
//   Acquire    guest-memory access: sessions (pooled or fresh), loader-list
//              walks, whole-image extraction.  The ONLY place that may
//              construct a ModuleSearcher (enforced by mc_lint's
//              pipeline-bypass rule).
//   Parse      format-plugin decomposition (PE32 or ELF64, resolved per
//              module through the FormatRegistry) into integrity items; a
//              FormatError is a finding, not a crash.  The only
//              ModuleParser owner.
//   Normalize  Algorithm 2 / canonical-RVA reduction of a pool of copies
//              against one elected reference (CanonicalPool).
//   Compare    pairwise item comparison through the IntegrityChecker,
//              with optional digest memoization.
//   Vote       the paper's majority rule  n > (t-1)/2.
//   Report     aggregation into CheckReport / PoolScanReport.
//
// Ownership rules (see DESIGN.md §7): the CheckContext owns the config,
// the parser/checker components and the persistent VmiSessionPool — the
// pool is a first-class mutable member here, not a `mutable` wart on a
// logically-const checker.  Stages borrow the context; the context must
// outlive the pipeline and every report it produced.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "modchecker/canonical.hpp"
#include "modchecker/checker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/searcher.hpp"
#include "modchecker/types.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/sim_clock.hpp"
#include "vmi/cost_model.hpp"
#include "vmi/session_pool.hpp"
#include "vmm/hypervisor.hpp"

namespace mc::core {

struct CachedCopy;
struct LoaderSnapshot;
class ScanCache;

/// Acquire-stage retry policy: how hard to push a faulting guest before
/// quarantining it for the rest of the sweep.  Backoff is exponential and
/// deterministic simulated time (charged unscaled — the checker is
/// *waiting*, not burning Dom0 CPU), so runs replay bit-identically.
struct RetryPolicy {
  /// Total tries per VM per acquire (1 = no retry).
  std::uint32_t max_attempts = 3;
  SimNanos backoff_base = sim_us(50);

  /// The simulated gap slept before retry number `next_attempt` (2-based:
  /// the wait happens after a failed attempt `next_attempt - 1`):
  /// backoff_base << (next_attempt - 2), the doubling clamped at 2^20.
  SimNanos delay_before(std::uint32_t next_attempt) const {
    if (next_attempt < 2) {
      return 0;
    }
    const std::uint32_t shift =
        next_attempt - 2 < 20 ? next_attempt - 2 : 20;  // clamp the doubling
    return backoff_base << shift;
  }
};

/// Faults worth retrying are the transient ones (a paged-out read, a
/// mid-update page table, a guest still booting).  A vanished domain, a
/// guest with no debug block, an unrecognized build or a loader list whose
/// FLINKs loop will not heal on a 50us backoff — they quarantine
/// immediately.
inline bool retryable_fault(FaultCode code) {
  switch (code) {
    case FaultCode::kReadFault:
    case FaultCode::kTranslationFault:
    case FaultCode::kNoAddressSpace:
      return true;
    case FaultCode::kDomainGone:
    case FaultCode::kDebugBlockMissing:
    case FaultCode::kUnrecognizedBuild:
    case FaultCode::kLoaderListCycle:
      return false;
  }
  return false;
}

struct ModCheckerConfig {
  crypto::HashAlgorithm algorithm = crypto::HashAlgorithm::kMd5;
  vmi::VmiCostModel vmi_costs{};
  vmi::HostCostModel host_costs{};
  /// Module image format the Parse stage resolves per module: kAuto sniffs
  /// each image's header magic through the plugin registry (PE32 and ELF64
  /// pools can even mix in one fleet); an explicit value pins one plugin
  /// and rejects everything else as a parse failure.
  ModuleFormatId format = ModuleFormatId::kAuto;
  /// Pool-access threads.  1 (the default) runs every per-VM acquire and
  /// pair comparison sequentially, so wall_time == cpu_times.total();
  /// N > 1 runs them on a ThreadPool of N workers and charges the
  /// list-scheduling makespan.  0 is rejected when the CheckContext is
  /// built.
  std::size_t worker_threads = 1;
  /// The paper's prototype: attach a fresh VMI session per check, hash
  /// every item per pair, and send every pool pair through Algorithm 2.
  /// Off (the default) keeps one session per domain alive across calls
  /// (VmiSessionPool; it auto-invalidates when a domain's epoch/CR3
  /// moves), memoizes the subject's raw-item digests within one check,
  /// and decides pool pairs by canonical-RVA digest vectors (see
  /// canonical.hpp) — O(t) image work instead of O(t^2), with any copy
  /// that does not reduce cleanly falling back to the exact pairwise
  /// comparison, so verdicts are identical either way.
  bool paper_faithful = false;
  /// Acquire-stage retry/quarantine policy (see RetryPolicy).
  RetryPolicy retry{};
  /// Registry backing every pipeline/VMI counter and histogram.  Null means
  /// the process default; &telemetry::MetricRegistry::disabled() turns the
  /// whole metric layer into no-ops.
  telemetry::MetricRegistry* metrics = nullptr;
  /// Span recorder for per-stage traces.  Null (the default) records
  /// nothing and costs nothing on the hot path.
  telemetry::TraceRecorder* tracer = nullptr;
  /// Chrome trace "pid" spans from this pipeline carry (the fleet service
  /// assigns one per pool so multi-pool traces get separate lanes).
  std::uint64_t trace_pid = 0;
  /// Attach a registry snapshot to PoolScanReport ("telemetry" JSON field).
  /// Off by default, keeping report bytes identical to the pre-telemetry
  /// schema.
  bool emit_telemetry = false;
};

/// Result of checking one module on one subject VM against a pool.
struct CheckReport {
  std::string module_name;
  vmm::DomainId subject = 0;
  std::vector<PairComparison> comparisons;
  std::size_t successes = 0;          // comparisons where every item matched
  std::size_t total_comparisons = 0;  // t - 1
  bool subject_clean = false;         // majority vote
  /// Union of item names that mismatched in at least one comparison.
  std::vector<std::string> flagged_items;
  /// Pool VMs where the module was not loaded (excluded from the vote).
  std::vector<vmm::DomainId> missing_on;
  /// Peers quarantined after exhausting acquire retries (excluded from the
  /// vote, like missing_on, but for a different reason: they never
  /// answered).
  std::vector<vmm::DomainId> unavailable_on;
  /// Every fault observed during this check, across all retry attempts.
  std::vector<FaultRecord> faults;
  /// Degraded-quorum bookkeeping: how many peers were asked vs. how many
  /// answered (missing-but-answering peers count as answered — "not
  /// loaded" is an answer).  quorum_lost flags a verdict reached with
  /// peers_answered <= (t-1)/2 — too few voters for the paper's majority
  /// rule to mean anything.
  std::size_t peers_total = 0;
  std::size_t peers_answered = 0;
  bool quorum_lost = false;
  /// The subject itself exhausted its retries; no verdict was attempted
  /// (subject_clean stays false, comparisons empty).  Distinct from the
  /// module being genuinely absent, which still throws NotFoundError.
  bool subject_unavailable = false;

  ComponentTimes cpu_times;  // summed across VMs (the Fig. 7/8 series)
  SimNanos wall_time = 0;    // sequential: == cpu total; parallel: critical path
};

/// Per-VM verdict from a whole-pool scan (every VM takes the subject role).
struct PoolVmVerdict {
  vmm::DomainId vm = 0;
  std::size_t successes = 0;
  std::size_t total = 0;
  bool clean = false;
  /// Degraded-quorum bookkeeping: of this VM's t-1 peers, how many
  /// answered their acquire (missing-but-answering counts as answered).
  std::size_t peers_total = 0;
  std::size_t peers_answered = 0;
  /// This VM exhausted its acquire retries and sat the scan out.
  bool quarantined = false;
  /// Verdict reached with peers_answered <= (t-1)/2: the majority rule no
  /// longer has enough voters behind it.  Never set on quarantined VMs
  /// (they have no verdict to degrade).
  bool quorum_lost = false;
};

struct PoolScanReport {
  std::string module_name;
  std::vector<PoolVmVerdict> verdicts;
  ComponentTimes cpu_times;
  SimNanos wall_time = 0;
  /// Pairs decided by the canonical-RVA digest comparison vs. pairs that
  /// ran the exact pairwise comparison (diagnostics for the fast path).
  std::size_t fastpath_pairs = 0;
  std::size_t fallback_pairs = 0;
  /// VMs quarantined this scan (acquire retries exhausted), and every
  /// fault observed along the way.  Both empty on a healthy pool.
  std::vector<vmm::DomainId> quarantined;
  std::vector<FaultRecord> faults;
  /// Registry snapshot JSON, filled only when config.emit_telemetry; the
  /// serializer appends it as a "telemetry" field when (and only when)
  /// non-empty.
  std::string telemetry_json;

  bool degraded() const { return !quarantined.empty() || !faults.empty(); }
};

/// One module whose presence differs across the pool.
struct ListDiscrepancy {
  std::string module_name;
  std::vector<vmm::DomainId> present_on;
  std::vector<vmm::DomainId> missing_on;
};

struct ListComparisonReport {
  /// Module names seen anywhere, with presence maps; only modules whose
  /// presence differs across *answering* VMs are listed (a quarantined VM
  /// is unknown, not absent).
  std::vector<ListDiscrepancy> discrepancies;
  std::size_t modules_seen = 0;
  SimNanos wall_time = 0;
  /// VMs whose loader-list walk exhausted its retries, plus the faults.
  std::vector<vmm::DomainId> unavailable;
  std::vector<FaultRecord> faults;

  bool consistent() const { return discrepancies.empty(); }
};

/// Item name reported when a module's copy cannot even be parsed (its PE
/// magics/headers are corrupted) — a definite integrity violation.
inline constexpr const char* kUnparseableItem = "MODULE_UNPARSEABLE";

/// Shared state for every stage of one pipeline.  Construction mirrors the
/// old ModChecker constructor; the session pool lives here so the drivers
/// stay logically const-correct.
struct CheckContext {
  /// Setup-time handles to the pipeline's registry aggregates; stages bump
  /// them on the hot path without touching the registry lock.  All handles
  /// are no-ops when the config points at the disabled registry.
  struct PipelineMetrics {
    static std::array<telemetry::Counter, kDeltaRefusalKinds>
    refusal_counters(telemetry::MetricRegistry& reg) {
      std::array<telemetry::Counter, kDeltaRefusalKinds> out;
      for (std::size_t k = 0; k < kDeltaRefusalKinds; ++k) {
        out[k] = reg.counter(std::string("canonical.delta_refusals.") +
                             delta_refusal_name(static_cast<DeltaRefusal>(k)));
      }
      return out;
    }

    explicit PipelineMetrics(telemetry::MetricRegistry& reg)
        : checks(reg.counter("pipeline.checks")),
          pool_scans(reg.counter("pipeline.pool_scans")),
          list_scans(reg.counter("pipeline.list_scans")),
          acquire_attempts(reg.counter("pipeline.acquire.attempts")),
          acquire_retries(reg.counter("pipeline.acquire.retries")),
          materializations(reg.counter("pipeline.acquire.materializations")),
          quarantines(reg.counter("pipeline.acquire.quarantines")),
          faults(reg.counter("pipeline.acquire.faults")),
          parse_failures(reg.counter("pipeline.parse.failures")),
          fastpath_pairs(reg.counter("pipeline.compare.fastpath_pairs")),
          fallback_pairs(reg.counter("pipeline.compare.fallback_pairs")),
          vector_compares(reg.counter("pipeline.compare.vector_compares")),
          fallback_items(reg.counter("pipeline.compare.fallback_items")),
          fallback_hashes(reg.counter("pipeline.compare.fallback_hashes")),
          delta_items(reg.counter("canonical.delta_items")),
          delta_refusals(refusal_counters(reg)),
          cache_reuses(reg.counter("incremental.cache_reuses")),
          partial_refreshes(reg.counter("incremental.partial_refreshes")),
          unchanged_refreshes(
              reg.counter("incremental.unchanged_refreshes")),
          frames_reread(reg.counter("incremental.frames_reread")),
          loader_walks(reg.counter("incremental.loader_walks")),
          loader_reuses(reg.counter("incremental.loader_reuses")),
          acquire_ns(reg.histogram("pipeline.acquire.sim_ns")),
          parse_ns(reg.histogram("pipeline.parse.sim_ns")),
          normalize_ns(reg.histogram("pipeline.normalize.sim_ns")),
          compare_ns(reg.histogram("pipeline.compare.sim_ns")) {}

    telemetry::Counter checks;
    telemetry::Counter pool_scans;
    telemetry::Counter list_scans;
    telemetry::Counter acquire_attempts;
    telemetry::Counter acquire_retries;
    /// Whole-image extractions into an owned copy (the scan cache's
    /// CachedCopy, the only one) instead of a borrowed view.  Zero across
    /// a clean fresh scan — the bench gate asserts exactly that.
    telemetry::Counter materializations;
    telemetry::Counter quarantines;
    telemetry::Counter faults;
    telemetry::Counter parse_failures;
    telemetry::Counter fastpath_pairs;
    telemetry::Counter fallback_pairs;
    /// Digest-vector compares that assigned the fast path's classes: at
    /// most one per class per eligible copy, t - 1 on a clean pool.
    telemetry::Counter vector_compares;
    /// Items the exact fallback examined, and the digests it computed.
    telemetry::Counter fallback_items;
    telemetry::Counter fallback_hashes;
    /// Of those items, the ones the delta fallback decided, and the ones
    /// it left to the per-item code by DeltaRefusal
    /// ("canonical.delta_refusals.<reason>").
    telemetry::Counter delta_items;
    std::array<telemetry::Counter, kDeltaRefusalKinds> delta_refusals;
    /// Scan-cache economics (ScanCache::account).
    telemetry::Counter cache_reuses;
    telemetry::Counter partial_refreshes;
    /// Partial refreshes whose bytes all matched: no re-parse.
    telemetry::Counter unchanged_refreshes;
    telemetry::Counter frames_reread;
    /// Cached fetches that walked the loader list, and those the domain's
    /// loader snapshot answered without a guest read.
    telemetry::Counter loader_walks;
    telemetry::Counter loader_reuses;
    telemetry::Histogram acquire_ns;
    telemetry::Histogram parse_ns;
    telemetry::Histogram normalize_ns;
    telemetry::Histogram compare_ns;
  };

  CheckContext(const vmm::Hypervisor& hv, ModCheckerConfig cfg)
      : hypervisor(&hv),
        config(std::move(cfg)),
        metrics(&telemetry::resolve(config.metrics)),
        tracer(config.tracer),
        parser(config.host_costs, config.format),
        checker(config.algorithm, config.host_costs),
        session_pool(hv, config.vmi_costs, metrics),
        pm(*metrics) {
    MC_CHECK(config.worker_threads >= 1, "worker_threads must be >= 1");
  }

  CheckContext(const CheckContext&) = delete;
  CheckContext& operator=(const CheckContext&) = delete;

  const vmm::Hypervisor* hypervisor;
  ModCheckerConfig config;
  /// Resolved registry (never null) and the optional span recorder.
  telemetry::MetricRegistry* metrics;
  telemetry::TraceRecorder* tracer;
  ModuleParser parser;
  IntegrityChecker checker;
  /// Per-domain persistent sessions (unused when config.paper_faithful).
  vmi::VmiSessionPool session_pool;
  PipelineMetrics pm;
};

/// Output of the Acquire+Parse front half for one VM.
struct Extraction {
  ComponentTimes times;
  bool found = false;
  bool parse_failed = false;
  ParsedModule parsed;
  /// Every fault observed across the acquire attempts (empty on a clean
  /// run — the usual case allocates nothing).
  std::vector<FaultRecord> faults;
  /// All attempts faulted: the VM never answered and is quarantined for
  /// this scan.  `found` stays false.
  bool unavailable = false;
  /// Acquire attempts consumed (1 on the clean path).
  std::uint32_t attempts = 1;
  /// The scan-cache slot holding this VM's copy; `parsed` is then empty.
  const CachedCopy* cached = nullptr;

  /// The parsed copy, wherever it lives.
  const ParsedModule& copy() const;
};

/// Stage 1 — Acquire: all guest-memory access.  Hands out RAII session
/// scopes (pooled lease by default, fresh attach when paper_faithful) and
/// runs the Module-Searcher operations against them.
class AcquireStage {
 public:
  explicit AcquireStage(CheckContext& ctx) : ctx_(&ctx) {}

  const CheckContext& context() const { return *ctx_; }

  /// One VM's introspection session for the duration of a stage call.
  /// Charges attach (or pool-hit bookkeeping) to `clock`.
  class Session {
   public:
    Session(CheckContext& ctx, vmm::DomainId vm, SimClock& clock);

    vmi::VmiSession& session();

   private:
    std::optional<vmi::VmiSessionPool::Lease> lease_;
    std::optional<vmi::VmiSession> local_;
  };

  /// One walk that keeps every read's outcome, so it can answer
  /// try_find_module for any name (the scan cache's loader snapshot).
  /// Every searcher call returns a guest fault (injected or real) as a
  /// FaultRecord instead of unwinding the scan.
  LoaderWalk walk_loader(Session& s) const;

  /// One retried acquire under the config's RetryPolicy: runs `attempt`
  /// (session open + searcher work on `clock`) up to max_attempts times,
  /// sleeping the deterministic backoff between tries.  Faults (including
  /// a NotFoundError from opening a vanished domain, surfaced as
  /// kDomainGone) are appended to `faults` with their attempt number;
  /// non-retryable codes stop early.  Returns the first successful result
  /// (a borrowed view), or disengaged when every attempt faulted.
  std::optional<std::optional<ModuleImage>> extract_with_retry(
      vmm::DomainId vm, const std::string& module_name, SimClock& clock,
      std::vector<FaultRecord>& faults, std::uint32_t& attempts) const;

 private:
  CheckContext* ctx_;
};

/// Stage 2 — Parse: PE decomposition on the host's (contention-scaled)
/// clock.
class ParseStage {
 public:
  explicit ParseStage(CheckContext& ctx) : ctx_(&ctx) {}

  /// Tolerant parse: a FormatError marks the extraction parse_failed (a
  /// finding the Vote stage turns into a definite mismatch).  Charges to
  /// ex.times.parser on a fresh dom0-slowdown clock.
  void parse(const ModuleImage& image, Extraction& ex) const;

 private:
  CheckContext* ctx_;
};

/// Canonical pool of one module plus what it was built from: empty for a
/// fresh scan, kept per module by a scan cache.  The pool borrows the
/// reference copy, which must stay put while `ref_generation` holds.
struct CanonicalState {
  std::optional<CanonicalPool> pool;
  vmm::DomainId ref_vm = 0;
  std::uint64_t ref_generation = 0;
  std::map<vmm::DomainId, std::uint64_t> generations;
};

/// Stage 3 — Normalize: canonical-RVA reduction of a pool of parsed copies
/// (Algorithm 2 against one elected reference; see canonical.hpp).
class NormalizeStage {
 public:
  explicit NormalizeStage(CheckContext& ctx) : ctx_(&ctx) {}

  /// True unless the config is paper_faithful.
  bool enabled() const;

  /// Brings `state` up to date with the parsed copies, charging `clock`.
  /// With no pool yet, or a reference that changed or left, elects afresh
  /// (the O(t) cost of a fresh scan); otherwise re-normalizes only cached
  /// copies whose generation moved, via update() with their dirty-range
  /// mask.  Null when !enabled() or nothing parsed.
  const CanonicalPool* normalize(const std::vector<Extraction>& extractions,
                                 CanonicalState& state, SimClock& clock) const;

  /// normalize() from a fresh state; disengaged when it returns null.
  std::optional<CanonicalPool> canonicalize(
      const std::vector<Extraction>& extractions, SimClock& clock) const;

 private:
  CheckContext* ctx_;
};

/// Stage 4 — Compare: exact pairwise item comparison (with optional digest
/// memo) through the IntegrityChecker.
class CompareStage {
 public:
  explicit CompareStage(CheckContext& ctx) : ctx_(&ctx) {}

  PairComparison compare(const ParsedModule& subject,
                         const ParsedModule& other, SimClock& clock,
                         DigestTable* memo = nullptr) const;

  /// compare(...).all_match without the per-item report: byte compares
  /// first, digests from `forms` only where bytes differ, stopping at the
  /// first mismatching item, items offered to `plan` first
  /// (IntegrityChecker::decide).
  bool decide(const ParsedModule& subject, const ParsedModule& other,
              SimClock& clock, DigestTable& forms,
              DecideTally* tally = nullptr,
              const DeltaPlan* plan = nullptr) const;

 private:
  CheckContext* ctx_;
};

/// Stage 5 — Vote: the paper's majority rule, quorum-aware.
class VoteStage {
 public:
  /// n > (t-1)/2 over the completed comparisons.
  static bool majority(std::size_t successes, std::size_t total) {
    return total > 0 && 2 * successes > total;
  }

  /// Did enough peers answer for the majority rule to be meaningful?
  /// Lost when the answering peers can no longer form a strict majority
  /// of the intended electorate: peers_answered <= (t-1)/2.
  static bool quorum_lost(std::size_t peers_answered,
                          std::size_t peers_total) {
    return peers_total > 0 && 2 * peers_answered <= peers_total;
  }

  /// Applies the rule to every per-VM tally and flags degraded verdicts.  A
  /// quarantined VM casts no vote, so it keeps quorum_lost clear unless its
  /// peers were never asked (check's unavailable subject: zero voters).
  void finalize(std::vector<PoolVmVerdict>& verdicts,
                bool peers_asked = true) const;
};

/// The staged pipeline.  Drivers (`check`, `pool_scan`, `compare_lists`)
/// compose the stages end to end; `check` and `pool_scan` are one verdict
/// driver over two pair sets.
class CheckPipeline {
 public:
  explicit CheckPipeline(CheckContext& ctx)
      : ctx_(&ctx),
        acquire_(ctx),
        parse_(ctx),
        normalize_(ctx),
        compare_(ctx) {}

  CheckContext& context() { return *ctx_; }
  const CheckContext& context() const { return *ctx_; }

  const AcquireStage& acquire() const { return acquire_; }
  const ParseStage& parse() const { return parse_; }
  const NormalizeStage& normalize() const { return normalize_; }
  const CompareStage& compare() const { return compare_; }
  const VoteStage& vote() const { return vote_; }

  /// Acquire + Parse for one VM: the shared front half of every check.
  /// With `cached` (its ScanCache slot) and `loader` (the VM's loader
  /// snapshot in the same cache), the copy is reused, patched or
  /// re-extracted inside the same retry loop and parsed in place; a VM
  /// that exhausts its retries loses its slot.
  Extraction acquire_and_parse(vmm::DomainId vm,
                               const std::string& module_name,
                               CachedCopy* cached = nullptr,
                               LoaderSnapshot* loader = nullptr);

  /// The subject's row of the verdict driver (ModChecker::check_module,
  /// check_module_sampled): pairs (subject, peer) for each of `raw_others`
  /// once, never the subject, decided with compare().  The subject is
  /// acquired first; if it never answers no peer is touched
  /// (subject_unavailable).  Throws NotFoundError if the module is not
  /// loaded on the subject.
  CheckReport check(vmm::DomainId subject, const std::string& module_name,
                    const std::vector<vmm::DomainId>& raw_others);

  /// The whole-pool verdict driver (ModChecker::scan_pool,
  /// IncrementalScanner::scan, fleet sweeps): every pair of the electorate
  /// is decided once, by the canonical fast path or the exact fallback
  /// (CompareStage::decide over one scan-scoped DigestTable; compare() when
  /// paper_faithful).  Null `cache` scans fresh; otherwise copies, canonical
  /// pool and pair verdicts are cached.
  PoolScanReport pool_scan(const std::string& module_name,
                           const std::vector<vmm::DomainId>& pool,
                           ScanCache* cache = nullptr);

  /// Loader-list presence comparison driver
  /// (ModChecker::compare_module_lists).
  ListComparisonReport compare_lists(const std::vector<vmm::DomainId>& pool);

 private:
  CheckContext* ctx_;
  AcquireStage acquire_;
  ParseStage parse_;
  NormalizeStage normalize_;
  CompareStage compare_;
  VoteStage vote_;
};

}  // namespace mc::core
