#include "modchecker/pipeline.hpp"

#include <algorithm>
#include <future>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "modchecker/searcher.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "vmi/session.hpp"

namespace mc::core {

namespace {

/// Converts the exceptions one acquire attempt can legitimately raise into
/// FaultRecords: GuestFaultError carries its record verbatim; a vanished
/// domain (NotFoundError from attach) becomes kDomainGone; a hostile page
/// table pointing outside guest RAM (MemoryError from the physical layer)
/// becomes a read fault.  Anything else — InvalidArgument, plain VmiError —
/// is API misuse and keeps unwinding.
template <typename T, typename Fn>
Fallible<T> run_acquire_attempt(vmm::DomainId vm, Fn&& attempt_fn) {
  try {
    return attempt_fn();
  } catch (const GuestFaultError& e) {
    return e.record();
  } catch (const NotFoundError& e) {
    FaultRecord fault;
    fault.code = FaultCode::kDomainGone;
    fault.domain = vm;
    fault.stage = CheckStage::kAcquire;
    fault.detail = e.what();
    return fault;
  } catch (const MemoryError& e) {
    FaultRecord fault;
    fault.code = FaultCode::kReadFault;
    fault.domain = vm;
    fault.stage = CheckStage::kAcquire;
    fault.detail = e.what();
    return fault;
  }
}

/// The Acquire retry loop: runs `attempt_fn` under `retry`, sleeping the
/// deterministic backoff (unscaled — waiting, not CPU) between tries.
/// Every fault is stamped with its attempt number and appended to
/// `faults`; non-retryable codes give up immediately.  Disengaged return
/// means the VM never answered.
template <typename T, typename Fn>
std::optional<T> acquire_with_retry(const RetryPolicy& retry,
                                    vmm::DomainId vm, SimClock& clock,
                                    std::vector<FaultRecord>& faults,
                                    std::uint32_t& attempts, Fn&& attempt_fn) {
  const std::uint32_t max_attempts =
      retry.max_attempts > 0 ? retry.max_attempts : 1;
  for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    attempts = attempt;
    if (attempt > 1) {
      clock.advance_raw(retry.delay_before(attempt));
    }
    Fallible<T> result = run_acquire_attempt<T>(vm, attempt_fn);
    if (result.ok()) {
      return std::move(result.value());
    }
    FaultRecord fault = std::move(result.fault());
    fault.attempt = attempt;
    fault.stage = CheckStage::kAcquire;
    const bool transient = retryable_fault(fault.code);
    faults.push_back(std::move(fault));
    if (!transient) {
      break;
    }
  }
  return std::nullopt;
}

}  // namespace

// ---- Acquire ---------------------------------------------------------------

AcquireStage::Session::Session(CheckContext& ctx, vmm::DomainId vm,
                               SimClock& clock) {
  if (ctx.config.reuse_sessions) {
    lease_.emplace(ctx.session_pool.acquire(vm, clock));
  } else {
    local_.emplace(*ctx.hypervisor, vm, clock, ctx.config.vmi_costs,
                   ctx.metrics);
  }
}

vmi::VmiSession& AcquireStage::Session::session() {
  return lease_ ? lease_->session() : *local_;
}

std::vector<ModuleInfo> AcquireStage::list_modules(Session& s) const {
  return ModuleSearcher(s.session()).list_modules();
}

std::optional<ModuleInfo> AcquireStage::find_module(
    Session& s, const std::string& module_name) const {
  return ModuleSearcher(s.session()).find_module(module_name);
}

std::optional<ModuleImage> AcquireStage::extract_module(
    Session& s, const std::string& module_name) const {
  // Always an owned copy: the throwing wrapper serves consumers whose
  // extraction outlives the scan (the incremental cache, forensics).
  ctx_->pm.materializations.inc();
  return ModuleSearcher(s.session()).extract_module(module_name);
}

Fallible<std::vector<ModuleInfo>> AcquireStage::try_list_modules(
    Session& s) const {
  return ModuleSearcher(s.session()).try_list_modules();
}

Fallible<std::optional<ModuleImage>> AcquireStage::try_extract_module(
    Session& s, const std::string& module_name) const {
  if (ctx_->config.zero_copy_acquire) {
    return ModuleSearcher(s.session())
        .try_extract_module(module_name, ExtractMode::kView);
  }
  ctx_->pm.materializations.inc();
  return ModuleSearcher(s.session()).try_extract_module(module_name);
}

std::optional<std::optional<ModuleImage>> AcquireStage::extract_with_retry(
    vmm::DomainId vm, const std::string& module_name, SimClock& clock,
    std::vector<FaultRecord>& faults, std::uint32_t& attempts) const {
  return acquire_with_retry<std::optional<ModuleImage>>(
      ctx_->config.retry, vm, clock, faults, attempts,
      [&]() -> Fallible<std::optional<ModuleImage>> {
        Session session(*ctx_, vm, clock);
        return try_extract_module(session, module_name);
      });
}

std::optional<std::vector<ModuleInfo>> AcquireStage::list_with_retry(
    vmm::DomainId vm, SimClock& clock, std::vector<FaultRecord>& faults,
    std::uint32_t& attempts) const {
  return acquire_with_retry<std::vector<ModuleInfo>>(
      ctx_->config.retry, vm, clock, faults, attempts,
      [&]() -> Fallible<std::vector<ModuleInfo>> {
        Session session(*ctx_, vm, clock);
        return try_list_modules(session);
      });
}

// ---- Parse -----------------------------------------------------------------

void ParseStage::parse(const ModuleImage& image, Extraction& ex) const {
  // Host CPU work, contention-scaled (Dom0 shares the physical cores with
  // the guests).
  ex.found = true;
  SimClock parser_clock;
  parser_clock.set_slowdown(ctx_->hypervisor->dom0_slowdown());
  try {
    ex.parsed = ctx_->parser.parse(image, parser_clock);
  } catch (const FormatError& e) {
    // Corrupted PE structure (e.g. a tampered magic or header field that
    // breaks the walk): not a crash, a *finding*.
    ex.parse_failed = true;
    ex.parse_error = e.what();
  }
  ex.times.parser = parser_clock.now();
}

// ---- Normalize -------------------------------------------------------------

bool NormalizeStage::enabled() const {
  // The CRC prefilter accepts on CRC equality, which digests cannot
  // reproduce, so the fast path stands down when it is enabled.
  return ctx_->config.pool_fastpath && !ctx_->config.crc_prefilter;
}

std::optional<CanonicalPool> NormalizeStage::canonicalize(
    const std::vector<Extraction>& extractions, SimClock& clock) const {
  if (!enabled()) {
    return std::nullopt;
  }
  std::vector<const ParsedModule*> copies;
  copies.reserve(extractions.size());
  for (const auto& ex : extractions) {
    if (ex.found && !ex.parse_failed) {
      copies.push_back(&ex.parsed);
    }
  }
  return CanonicalPool::elect(copies, clock, ctx_->config.algorithm,
                              ctx_->config.host_costs, ctx_->metrics,
                              ctx_->policy());
}

// ---- Compare ---------------------------------------------------------------

PairComparison CompareStage::compare(const ParsedModule& subject,
                                     const ParsedModule& other,
                                     SimClock& clock,
                                     DigestTable* memo) const {
  return ctx_->checker.compare(subject, other, clock, memo);
}

// ---- Vote ------------------------------------------------------------------

void VoteStage::finalize(std::vector<PoolVmVerdict>& verdicts) const {
  for (auto& v : verdicts) {
    v.clean = majority(v.successes, v.total);
    v.quorum_lost =
        !v.quarantined && quorum_lost(v.peers_answered, v.peers_total);
  }
}

// ---- Drivers ---------------------------------------------------------------

Extraction CheckPipeline::acquire_and_parse(vmm::DomainId vm,
                                            const std::string& module_name) {
  Extraction ex;
  const std::uint64_t pid = ctx_->config.trace_pid;

  // Module-Searcher: all guest-memory access happens here.  With session
  // reuse the per-domain session (and its V2P cache) survives across
  // calls; otherwise attach fresh, as the paper's prototype does.  A guest
  // fault is retried under the config's RetryPolicy; a VM that exhausts
  // its attempts comes back `unavailable` (quarantined), never as an
  // exception.  On a fault-free run attempt 1 succeeds and the charges are
  // bit-identical to the pre-fault-domain pipeline.
  SimClock searcher_clock;
  telemetry::SpanScope acquire_span = telemetry::span(
      ctx_->tracer, "acquire", "pipeline", pid, vm, &searcher_clock);
  acquire_span.arg("module", module_name);
  std::optional<std::optional<ModuleImage>> image = acquire_.extract_with_retry(
      vm, module_name, searcher_clock, ex.faults, ex.attempts);
  ex.times.searcher = searcher_clock.now();

  ctx_->pm.acquire_attempts.inc(ex.attempts);
  if (ex.attempts > 1) {
    ctx_->pm.acquire_retries.inc(ex.attempts - 1);
  }
  if (!ex.faults.empty()) {
    ctx_->pm.faults.inc(ex.faults.size());
  }
  ctx_->pm.acquire_ns.observe(ex.times.searcher);
  acquire_span.arg("attempts", std::uint64_t{ex.attempts});
  if (!ex.faults.empty()) {
    acquire_span.arg("faults", std::uint64_t{ex.faults.size()});
  }

  if (!image) {
    ex.unavailable = true;  // never answered; found stays false
    ctx_->pm.quarantines.inc();
    acquire_span.arg("quarantined", std::uint64_t{1});
    return ex;
  }
  acquire_span.end();
  if (!*image) {
    return ex;  // answered: module not loaded here
  }
  {
    telemetry::SpanScope parse_span =
        telemetry::span(ctx_->tracer, "parse", "pipeline", pid, vm);
    parse_span.arg("module", module_name);
    parse_.parse(**image, ex);
    parse_span.arg("sim_ns", ex.times.parser);
    if (ex.parse_failed) {
      parse_span.arg("parse_failed", std::uint64_t{1});
    }
  }
  ctx_->pm.parse_ns.observe(ex.times.parser);
  if (ex.parse_failed) {
    ctx_->pm.parse_failures.inc();
  }
  return ex;
}

CheckReport CheckPipeline::check(vmm::DomainId subject,
                                 const std::string& module_name,
                                 const std::vector<vmm::DomainId>& raw_others) {
  const ModCheckerConfig& config = ctx_->config;
  ctx_->pm.checks.inc();
  CheckReport report;
  report.module_name = module_name;
  report.subject = subject;

  // Guard against the subject sneaking into its own comparison pool (a
  // self-comparison always matches and would dilute the vote) and against
  // duplicate entries double-counting a peer.
  std::vector<vmm::DomainId> others;
  others.reserve(raw_others.size());
  std::unordered_set<vmm::DomainId> seen;
  seen.reserve(raw_others.size() + 1);
  seen.insert(subject);
  for (const vmm::DomainId vm : raw_others) {
    if (seen.insert(vm).second) {
      others.push_back(vm);
    }
  }

  // Subject extraction first (both modes need it before comparing).
  Extraction subject_ex = acquire_and_parse(subject, module_name);
  for (FaultRecord& fault : subject_ex.faults) {
    report.faults.push_back(std::move(fault));
  }
  report.peers_total = others.size();
  if (subject_ex.unavailable) {
    // The subject itself never answered: no verdict is possible.  This is
    // a degraded outcome, not caller error — report it (the module being
    // genuinely absent, below, still throws as it always has).
    report.subject_unavailable = true;
    report.cpu_times += subject_ex.times;
    report.quorum_lost = VoteStage::quorum_lost(0, report.peers_total);
    report.wall_time = report.cpu_times.total();
    return report;
  }
  if (!subject_ex.found) {
    throw NotFoundError("module '" + module_name +
                        "' not loaded on subject VM " +
                        std::to_string(subject));
  }
  report.cpu_times += subject_ex.times;

  // Digest memo: the subject's raw-byte items are hashed once here instead
  // of once per peer inside compare().  Preloading on the orchestrator's
  // clock (not inside the worker tasks) keeps parallel and sequential runs
  // charging identical totals — no task's time depends on which one
  // happened to miss the shared table first.
  std::optional<DigestTable> memo;
  SimNanos memo_preload = 0;
  if (config.digest_memo && !subject_ex.parse_failed) {
    memo.emplace(config.algorithm, config.host_costs, ctx_->metrics);
    SimClock preload_clock;
    preload_clock.set_slowdown(ctx_->hypervisor->dom0_slowdown());
    for (const IntegrityItem& item : subject_ex.parsed.items) {
      if (item.rva_sensitive) {
        continue;  // pair-specific after Algorithm 2; never memoized
      }
      if (config.crc_prefilter) {
        memo->crc(subject, item, preload_clock);
      }
      memo->digest(subject, item, preload_clock);
    }
    memo_preload = preload_clock.now();
    report.cpu_times.checker += memo_preload;
  }

  struct PerVm {
    vmm::DomainId vm;
    Extraction ex;
    PairComparison cmp;
    SimNanos checker_time = 0;
  };

  auto process_other = [&](vmm::DomainId vm) {
    PerVm r;
    r.vm = vm;
    r.ex = acquire_and_parse(vm, module_name);
    if (r.ex.found && !r.ex.parse_failed && !subject_ex.parse_failed) {
      SimClock checker_clock;
      checker_clock.set_slowdown(ctx_->hypervisor->dom0_slowdown());
      telemetry::SpanScope compare_span =
          telemetry::span(ctx_->tracer, "compare", "pipeline",
                          config.trace_pid, vm, &checker_clock);
      r.cmp = compare_.compare(subject_ex.parsed, r.ex.parsed, checker_clock,
                               memo ? &*memo : nullptr);
      r.checker_time = checker_clock.now();
      compare_span.end();
      ctx_->pm.compare_ns.observe(r.checker_time);
    }
    return r;
  };

  std::vector<PerVm> results;
  results.reserve(others.size());

  if (config.parallel && others.size() > 1) {
    ThreadPool pool(std::min(config.worker_threads, others.size()));
    std::vector<std::future<PerVm>> futures;
    futures.reserve(others.size());
    for (const vmm::DomainId vm : others) {
      futures.push_back(pool.submit([&, vm] { return process_other(vm); }));
    }
    // Simulated makespan on `worker_threads` workers: the list-scheduling
    // estimate max(longest task, total work / workers).
    SimNanos longest_task = 0;
    SimNanos total_work = 0;
    for (auto& f : futures) {
      results.push_back(f.get());
      const PerVm& r = results.back();
      const SimNanos task = r.ex.times.total() + r.checker_time;
      longest_task = std::max(longest_task, task);
      total_work += task;
    }
    const SimNanos makespan = std::max(
        longest_task, total_work / std::min<SimNanos>(config.worker_threads,
                                                      others.size()));
    report.wall_time = subject_ex.times.total() + memo_preload + makespan;
  } else {
    for (const vmm::DomainId vm : others) {
      results.push_back(process_other(vm));
    }
  }

  // Report aggregation.
  std::set<std::string> flagged;
  if (subject_ex.parse_failed) {
    flagged.insert(kUnparseableItem);
  }
  for (auto& r : results) {
    for (FaultRecord& fault : r.ex.faults) {
      report.faults.push_back(std::move(fault));
    }
    if (r.ex.unavailable) {
      // Retries exhausted: this peer casts no vote (like missing_on, its
      // time is not billed to cpu_times — it produced no comparison).
      report.unavailable_on.push_back(r.vm);
      continue;
    }
    if (!r.ex.found) {
      report.missing_on.push_back(r.vm);
      continue;
    }
    report.cpu_times += r.ex.times;
    report.cpu_times.checker += r.checker_time;
    ++report.total_comparisons;
    if (subject_ex.parse_failed || r.ex.parse_failed) {
      // An unparseable copy can never corroborate: count the comparison as
      // a definite mismatch.
      if (r.ex.parse_failed) {
        flagged.insert(kUnparseableItem);
      }
      r.cmp.other_domain = r.vm;
      r.cmp.all_match = false;
      report.comparisons.push_back(std::move(r.cmp));
      continue;
    }
    if (r.cmp.all_match) {
      ++report.successes;
    } else {
      for (const auto& item : r.cmp.items) {
        if (!item.match) {
          flagged.insert(item.item_name);
        }
      }
    }
    report.comparisons.push_back(std::move(r.cmp));
  }
  report.flagged_items.assign(flagged.begin(), flagged.end());

  // Majority vote: n > (t-1)/2 where t-1 is the number of completed
  // comparisons.
  report.subject_clean =
      VoteStage::majority(report.successes, report.total_comparisons);

  // Degraded-quorum bookkeeping: a missing-but-answering peer counts as
  // answered ("not loaded" is an answer); only quarantined peers erode the
  // quorum.
  report.peers_answered = others.size() - report.unavailable_on.size();
  report.quorum_lost =
      VoteStage::quorum_lost(report.peers_answered, report.peers_total);

  if (!config.parallel || others.size() <= 1) {
    report.wall_time = report.cpu_times.total();
  }
  return report;
}

PoolScanReport CheckPipeline::pool_scan(
    const std::string& module_name, const std::vector<vmm::DomainId>& pool) {
  const ModCheckerConfig& config = ctx_->config;
  ctx_->pm.pool_scans.inc();
  telemetry::SpanScope scan_span = telemetry::span(
      ctx_->tracer, "pool_scan", "pipeline", config.trace_pid, 0);
  scan_span.arg("module", module_name);
  scan_span.arg("pool_size", std::uint64_t{pool.size()});
  PoolScanReport report;
  report.module_name = module_name;

  // Acquire + Parse every VM once.
  std::vector<Extraction> extractions;
  extractions.reserve(pool.size());

  if (config.parallel && pool.size() > 1) {
    ThreadPool tp(std::min(config.worker_threads, pool.size()));
    std::vector<std::future<Extraction>> futures;
    for (const vmm::DomainId vm : pool) {
      futures.push_back(
          tp.submit([&, vm] { return acquire_and_parse(vm, module_name); }));
    }
    SimNanos longest = 0;
    SimNanos total_work = 0;
    for (auto& f : futures) {
      extractions.push_back(f.get());
      longest = std::max(longest, extractions.back().times.total());
      total_work += extractions.back().times.total();
    }
    report.wall_time = std::max(
        longest, total_work / std::min<SimNanos>(config.worker_threads,
                                                 pool.size()));
  } else {
    for (const vmm::DomainId vm : pool) {
      extractions.push_back(acquire_and_parse(vm, module_name));
      report.wall_time += extractions.back().times.total();
    }
  }
  for (const auto& ex : extractions) {
    report.cpu_times += ex.times;
  }

  // Pairwise comparisons; each unordered pair evaluated once and credited
  // to both VMs' vote tallies.  A quarantined VM (acquire retries
  // exhausted) has found == false, so the pair loops below exclude it
  // naturally; it is surfaced here rather than silently looking "missing".
  std::vector<PoolVmVerdict> verdicts(pool.size());
  std::size_t answered = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    verdicts[i].vm = pool[i];
    verdicts[i].peers_total = pool.empty() ? 0 : pool.size() - 1;
    Extraction& ex = extractions[i];
    for (FaultRecord& fault : ex.faults) {
      report.faults.push_back(std::move(fault));
    }
    if (ex.unavailable) {
      verdicts[i].quarantined = true;
      report.quarantined.push_back(pool[i]);
    } else {
      ++answered;
    }
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    verdicts[i].peers_answered =
        answered - (extractions[i].unavailable ? 0 : 1);
  }

  // Normalize: canonical-RVA reduction against an elected reference copy
  // (O(t) image work); eligible pairs are then decided by digest-vector
  // comparison.  Any copy that does not reduce cleanly drops its pairs to
  // the exact pairwise fallback below — verdict-identical to the slow
  // path.
  SimClock canon_clock;
  canon_clock.set_slowdown(ctx_->hypervisor->dom0_slowdown());
  telemetry::SpanScope normalize_span = telemetry::span(
      ctx_->tracer, "normalize", "pipeline", config.trace_pid, 0,
      &canon_clock);
  std::optional<CanonicalPool> canon =
      normalize_.canonicalize(extractions, canon_clock);
  const SimNanos normalize_ns = canon_clock.now();
  normalize_span.arg("fastpath_enabled",
                     std::uint64_t{canon.has_value() ? 1u : 0u});
  if (canon && !canon->empty()) {
    normalize_span.arg("reference_vm",
                       std::uint64_t{canon->reference_domain()});
    normalize_span.arg("reelected",
                       std::uint64_t{canon->reelected() ? 1u : 0u});
  }
  normalize_span.end();
  ctx_->pm.normalize_ns.observe(normalize_ns);

  // Compare covers the rest of canon_clock (the fast-path digest-vector
  // decisions) plus every exact fallback pair.
  telemetry::SpanScope compare_span = telemetry::span(
      ctx_->tracer, "compare", "pipeline", config.trace_pid, 0, &canon_clock);

  struct PairRef {
    std::size_t i;
    std::size_t j;
  };
  std::vector<PairRef> fallback;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!extractions[i].found) {
      continue;
    }
    for (std::size_t j = i + 1; j < pool.size(); ++j) {
      if (!extractions[j].found) {
        continue;
      }
      ++verdicts[i].total;
      ++verdicts[j].total;
      if (extractions[i].parse_failed || extractions[j].parse_failed) {
        continue;  // an unparseable copy never matches anything
      }
      if (canon && canon->eligible(pool[i]) && canon->eligible(pool[j])) {
        ++report.fastpath_pairs;
        canon_clock.charge(config.host_costs.digest_pair_fixed);
        if (canon->digests(pool[i]) == canon->digests(pool[j])) {
          ++verdicts[i].successes;
          ++verdicts[j].successes;
        }
      } else {
        fallback.push_back({i, j});
      }
    }
  }
  report.fallback_pairs = fallback.size();
  report.cpu_times.checker += canon_clock.now();
  report.wall_time += canon_clock.now();

  // Exact pairwise comparisons for the fallback set.  In parallel mode
  // each pair is an independent task with its own clock and the wall cost
  // is the list-scheduling makespan.
  auto run_fallback_pair = [&](const PairRef& p) {
    SimClock pair_clock;
    pair_clock.set_slowdown(ctx_->hypervisor->dom0_slowdown());
    const PairComparison cmp = compare_.compare(
        extractions[p.i].parsed, extractions[p.j].parsed, pair_clock);
    return std::pair<bool, SimNanos>(cmp.all_match, pair_clock.now());
  };

  if (config.parallel && fallback.size() > 1) {
    ThreadPool tp(std::min(config.worker_threads, fallback.size()));
    std::vector<std::future<std::pair<bool, SimNanos>>> futures;
    futures.reserve(fallback.size());
    for (const PairRef& p : fallback) {
      futures.push_back(tp.submit([&, p] { return run_fallback_pair(p); }));
    }
    SimNanos longest = 0;
    SimNanos total_work = 0;
    for (std::size_t k = 0; k < fallback.size(); ++k) {
      const auto [all_match, task_time] = futures[k].get();
      if (all_match) {
        ++verdicts[fallback[k].i].successes;
        ++verdicts[fallback[k].j].successes;
      }
      longest = std::max(longest, task_time);
      total_work += task_time;
    }
    report.cpu_times.checker += total_work;
    report.wall_time += std::max(
        longest, total_work / std::min<SimNanos>(config.worker_threads,
                                                 fallback.size()));
  } else {
    for (const PairRef& p : fallback) {
      const auto [all_match, task_time] = run_fallback_pair(p);
      if (all_match) {
        ++verdicts[p.i].successes;
        ++verdicts[p.j].successes;
      }
      report.cpu_times.checker += task_time;
      report.wall_time += task_time;
    }
  }

  compare_span.arg("fastpath_pairs", std::uint64_t{report.fastpath_pairs});
  compare_span.arg("fallback_pairs", std::uint64_t{report.fallback_pairs});
  compare_span.end();
  ctx_->pm.fastpath_pairs.inc(report.fastpath_pairs);
  ctx_->pm.fallback_pairs.inc(report.fallback_pairs);
  ctx_->pm.compare_ns.observe(report.cpu_times.checker - normalize_ns);

  {
    telemetry::SpanScope vote_span = telemetry::span(
        ctx_->tracer, "vote", "pipeline", config.trace_pid, 0);
    vote_.finalize(verdicts);
    vote_span.arg("verdicts", std::uint64_t{verdicts.size()});
  }
  report.verdicts = std::move(verdicts);
  if (!report.quarantined.empty()) {
    scan_span.arg("quarantined", std::uint64_t{report.quarantined.size()});
  }
  scan_span.arg("sim_wall_ns", report.wall_time);
  if (config.emit_telemetry) {
    report.telemetry_json = telemetry::to_json(ctx_->metrics->snapshot());
  }
  return report;
}

ListComparisonReport CheckPipeline::compare_lists(
    const std::vector<vmm::DomainId>& pool) {
  ListComparisonReport report;
  ctx_->pm.list_scans.inc();

  // Gather each VM's loader list through introspection (retried under the
  // RetryPolicy).  A VM that never answers is *unknown*, not
  // module-absent: it drops out of the presence denominator entirely so a
  // quarantined guest does not fabricate discrepancies.
  std::map<std::string, std::vector<vmm::DomainId>> presence;
  std::vector<vmm::DomainId> responders;
  responders.reserve(pool.size());
  SimNanos wall = 0;
  for (const vmm::DomainId vm : pool) {
    SimClock clock;
    std::uint32_t attempts = 1;
    telemetry::SpanScope list_span =
        telemetry::span(ctx_->tracer, "acquire_list", "pipeline",
                        ctx_->config.trace_pid, vm, &clock);
    std::optional<std::vector<ModuleInfo>> modules =
        acquire_.list_with_retry(vm, clock, report.faults, attempts);
    list_span.arg("attempts", std::uint64_t{attempts});
    list_span.end();
    wall += clock.now();
    if (!modules) {
      report.unavailable.push_back(vm);
      continue;
    }
    responders.push_back(vm);
    for (const auto& info : *modules) {
      presence[info.name].push_back(vm);
    }
  }
  report.wall_time = wall;
  report.modules_seen = presence.size();

  for (const auto& [name, present_on] : presence) {
    if (present_on.size() == responders.size()) {
      continue;  // uniformly present across every VM that answered
    }
    ListDiscrepancy d;
    d.module_name = name;
    d.present_on = present_on;
    for (const vmm::DomainId vm : responders) {
      if (std::find(present_on.begin(), present_on.end(), vm) ==
          present_on.end()) {
        d.missing_on.push_back(vm);
      }
    }
    report.discrepancies.push_back(std::move(d));
  }
  return report;
}

}  // namespace mc::core
