// Staged check pipeline — the single implementation of the paper's
// acquire → parse → normalize → compare → vote → report flow.
//
// The prototype re-implemented that flow separately in check_module,
// check_module_sampled, scan_pool, compare_module_lists and the
// IncrementalScanner, so every optimisation (canonical fast path, session
// pooling, digest memo) had to be threaded through each path by hand.
// This header is the one seam: each stage is a small object over a shared
// CheckContext, and every public entry point — ModChecker's methods, the
// IncrementalScanner, the fleet service sweeps — is a thin driver that
// composes the stages.
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

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "modchecker/canonical.hpp"
#include "modchecker/checker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/types.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "util/fault.hpp"
#include "util/sim_clock.hpp"
#include "vmi/cost_model.hpp"
#include "vmi/session_pool.hpp"
#include "vmm/hypervisor.hpp"

namespace mc::core {

/// Acquire-stage retry policy: how hard to push a faulting guest before
/// quarantining it for the rest of the sweep.  Backoff is deterministic
/// simulated time (charged unscaled — the checker is *waiting*, not
/// burning Dom0 CPU), so runs replay bit-identically.
struct RetryPolicy {
  enum class Backoff : std::uint8_t {
    kFixed,        // every gap is backoff_base
    kExponential,  // backoff_base << (attempt - 1)
  };

  /// Total tries per VM per acquire (1 = no retry).
  std::uint32_t max_attempts = 3;
  SimNanos backoff_base = sim_us(50);
  Backoff backoff = Backoff::kExponential;

  /// The simulated gap slept before retry number `next_attempt` (2-based:
  /// the wait happens after a failed attempt `next_attempt - 1`).
  SimNanos delay_before(std::uint32_t next_attempt) const {
    if (next_attempt < 2) {
      return 0;
    }
    if (backoff == Backoff::kFixed) {
      return backoff_base;
    }
    const std::uint32_t shift =
        next_attempt - 2 < 20 ? next_attempt - 2 : 20;  // clamp the doubling
    return backoff_base << shift;
  }
};

/// Faults worth retrying are the transient ones (a paged-out read, a
/// mid-update page table, a guest still booting).  A vanished domain, a
/// guest with no debug block or an unrecognized build will not heal on a
/// 50us backoff — they quarantine immediately.
inline bool retryable_fault(FaultCode code) {
  switch (code) {
    case FaultCode::kReadFault:
    case FaultCode::kTranslationFault:
    case FaultCode::kNoAddressSpace:
      return true;
    case FaultCode::kDomainGone:
    case FaultCode::kDebugBlockMissing:
    case FaultCode::kUnrecognizedBuild:
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
  bool parallel = false;
  std::size_t worker_threads = 8;
  /// CRC32 prefilter: skip the full digest when cheap checksums agree
  /// (see IntegrityChecker for the tradeoff).
  bool crc_prefilter = false;
  /// Keep one VMI session per domain alive across calls (VmiSessionPool):
  /// repeat scans skip the attach + debug-block scan and reuse the warm
  /// V2P cache.  Sessions auto-invalidate when a domain's epoch/CR3 moves
  /// (snapshot restore, clone-into).  Off reproduces the paper's
  /// attach-per-check prototype.
  bool reuse_sessions = true;
  /// Canonical-RVA fast path for pool scans: normalize every copy against
  /// one elected reference, then decide each pair by comparing precomputed
  /// digest vectors — O(t) image work instead of O(t^2).  Pairs involving any
  /// copy that does not reduce cleanly fall back to the exact pairwise
  /// comparison, so verdicts are identical to the slow path (see
  /// canonical.hpp).  Disabled automatically with crc_prefilter (the
  /// prefilter's CRC-collision acceptance is not digest-equivalent).
  bool pool_fastpath = true;
  /// Memoize per-item digests within one check so the subject's items are
  /// hashed once instead of once per peer.
  bool digest_memo = true;
  /// Acquire whole-image extractions as borrowed GuestViews over the
  /// guest's frames instead of copying SizeOfImage bytes into an owned
  /// buffer.  Simulated charges are identical (the per-byte access cost is
  /// the introspection, not the host memcpy); the saving is host time and
  /// allocations.  Views live for one scan, so consumers that outlive it
  /// (the incremental cache, forensic dumps) always take the copy path
  /// regardless of this flag.
  bool zero_copy_acquire = true;
  /// Pin every diff/compare kernel to the scalar implementation (same
  /// effect as the MC_FORCE_SCALAR environment variable, scoped to this
  /// pipeline).  Verdicts are bit-identical at every dispatch level; this
  /// exists for A/B benchmarking and CI cross-checking.
  bool force_scalar = false;
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
          acquire_ns(reg.histogram("pipeline.acquire.sim_ns")),
          parse_ns(reg.histogram("pipeline.parse.sim_ns")),
          normalize_ns(reg.histogram("pipeline.normalize.sim_ns")),
          compare_ns(reg.histogram("pipeline.compare.sim_ns")) {}

    telemetry::Counter checks;
    telemetry::Counter pool_scans;
    telemetry::Counter list_scans;
    telemetry::Counter acquire_attempts;
    telemetry::Counter acquire_retries;
    /// Whole-image extractions that produced an owned copy instead of a
    /// borrowed view (kCopy mode or zero_copy_acquire off).  Zero across a
    /// clean zero-copy scan — the bench gate asserts exactly that.
    telemetry::Counter materializations;
    telemetry::Counter quarantines;
    telemetry::Counter faults;
    telemetry::Counter parse_failures;
    telemetry::Counter fastpath_pairs;
    telemetry::Counter fallback_pairs;
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
        checker(config.algorithm, config.host_costs, config.crc_prefilter,
                config.force_scalar ? simd::Policy::kScalar
                                    : simd::Policy::kAuto),
        session_pool(hv, config.vmi_costs, metrics),
        pm(*metrics) {}

  CheckContext(const CheckContext&) = delete;
  CheckContext& operator=(const CheckContext&) = delete;

  /// Dispatch policy every stage's diff/compare kernels run under.
  simd::Policy policy() const {
    return config.force_scalar ? simd::Policy::kScalar : simd::Policy::kAuto;
  }

  const vmm::Hypervisor* hypervisor;
  ModCheckerConfig config;
  /// Resolved registry (never null) and the optional span recorder.
  telemetry::MetricRegistry* metrics;
  telemetry::TraceRecorder* tracer;
  ModuleParser parser;
  IntegrityChecker checker;
  /// Per-domain persistent sessions (used when config.reuse_sessions).
  vmi::VmiSessionPool session_pool;
  PipelineMetrics pm;
};

/// Output of the Acquire+Parse front half for one VM.
struct Extraction {
  ComponentTimes times;
  bool found = false;
  bool parse_failed = false;
  std::string parse_error;
  ParsedModule parsed;
  /// Every fault observed across the acquire attempts (empty on a clean
  /// run — the usual case allocates nothing).
  std::vector<FaultRecord> faults;
  /// All attempts faulted: the VM never answered and is quarantined for
  /// this scan.  `found` stays false.
  bool unavailable = false;
  /// Acquire attempts consumed (1 on the clean path).
  std::uint32_t attempts = 1;
};

/// Stage 1 — Acquire: all guest-memory access.  Hands out RAII session
/// scopes (pooled lease when reuse_sessions, fresh attach otherwise) and
/// runs the Module-Searcher operations against them.
class AcquireStage {
 public:
  explicit AcquireStage(CheckContext& ctx) : ctx_(&ctx) {}

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

  Session open(vmm::DomainId vm, SimClock& clock) const {
    return Session(*ctx_, vm, clock);
  }

  /// Loader-list walk: every module's basic facts.
  std::vector<ModuleInfo> list_modules(Session& s) const;

  /// Loader-list lookup of one module; nullopt if not loaded.
  std::optional<ModuleInfo> find_module(Session& s,
                                        const std::string& module_name) const;

  /// Whole-image copy out of guest memory; nullopt if not loaded.
  std::optional<ModuleImage> extract_module(
      Session& s, const std::string& module_name) const;

  /// Fault-returning variants: a guest fault (injected or real) comes back
  /// as a FaultRecord instead of unwinding the scan.
  Fallible<std::vector<ModuleInfo>> try_list_modules(Session& s) const;
  Fallible<std::optional<ModuleImage>> try_extract_module(
      Session& s, const std::string& module_name) const;

  /// One retried acquire under the config's RetryPolicy: runs `attempt`
  /// (session open + searcher work on `clock`) up to max_attempts times,
  /// sleeping the deterministic backoff between tries.  Faults (including
  /// a NotFoundError from opening a vanished domain, surfaced as
  /// kDomainGone) are appended to `faults` with their attempt number;
  /// non-retryable codes stop early.  Returns the first successful result,
  /// or disengaged when every attempt faulted.
  std::optional<std::optional<ModuleImage>> extract_with_retry(
      vmm::DomainId vm, const std::string& module_name, SimClock& clock,
      std::vector<FaultRecord>& faults, std::uint32_t& attempts) const;

  std::optional<std::vector<ModuleInfo>> list_with_retry(
      vmm::DomainId vm, SimClock& clock, std::vector<FaultRecord>& faults,
      std::uint32_t& attempts) const;

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

/// Stage 3 — Normalize: canonical-RVA reduction of a pool of parsed copies
/// (Algorithm 2 against one elected reference; see canonical.hpp).
class NormalizeStage {
 public:
  explicit NormalizeStage(CheckContext& ctx) : ctx_(&ctx) {}

  /// True when the config wants the fast path (pool_fastpath and no CRC
  /// prefilter in the way).
  bool enabled() const;

  /// Builds the canonical pool over every successfully parsed extraction
  /// against an elected reference (CanonicalPool::elect), charging
  /// normalization to `clock`.  Disengaged when !enabled().
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

  /// Applies the rule to every per-VM tally and flags degraded verdicts
  /// (quorum_lost is never raised on quarantined VMs — they cast no vote).
  void finalize(std::vector<PoolVmVerdict>& verdicts) const;
};

/// The staged pipeline.  Drivers (`check`, `pool_scan`, `compare_lists`)
/// compose the stages end to end; callers with bespoke front halves (the
/// IncrementalScanner's dirty-frame cache, the fleet service) use the stage
/// accessors directly.
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
  Extraction acquire_and_parse(vmm::DomainId vm,
                               const std::string& module_name);

  /// Subject-vs-peers driver (ModChecker::check_module).  `raw_others` is
  /// sanitized against self-comparison and duplicates.  Throws
  /// NotFoundError if the module is not loaded on the subject.
  CheckReport check(vmm::DomainId subject, const std::string& module_name,
                    const std::vector<vmm::DomainId>& raw_others);

  /// Whole-pool cross-check driver (ModChecker::scan_pool): every VM takes
  /// the subject role; canonical fast path + exact fallback.
  PoolScanReport pool_scan(const std::string& module_name,
                           const std::vector<vmm::DomainId>& pool);

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
