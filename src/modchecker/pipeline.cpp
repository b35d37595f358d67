#include "modchecker/pipeline.hpp"

#include <algorithm>
#include <future>
#include <map>
#include <set>
#include <utility>

#include "modchecker/incremental.hpp"
#include "modchecker/searcher.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "vmi/session.hpp"

namespace mc::core {

namespace {

/// Runs one acquire attempt.  Guest faults already come back as records;
/// the one exception turned into a record is a domain gone by attach time
/// (NotFoundError from the session constructor), which becomes
/// kDomainGone.  Anything else — InvalidArgument, VmiError — is API misuse
/// and keeps unwinding.
template <typename T, typename Fn>
Fallible<T> run_acquire_attempt(vmm::DomainId vm, Fn&& attempt_fn) {
  try {
    return attempt_fn();
  } catch (const NotFoundError& e) {
    FaultRecord fault;
    fault.code = FaultCode::kDomainGone;
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

/// Appends task(0) .. task(n - 1) to `out`, on a ThreadPool when
/// config.worker_threads > 1 and n > 1, and returns the simulated wall
/// time: the summed task costs sequentially, the list-scheduling makespan
/// max(longest task, total work / workers) in parallel.  Both verdict
/// drivers' wall times come from here.
template <typename R, typename Task, typename Cost>
SimNanos run_tasks(const ModCheckerConfig& config, std::size_t n, Task&& task,
                   Cost&& cost, std::vector<R>& out) {
  out.reserve(out.size() + n);
  SimNanos longest = 0;
  SimNanos total = 0;
  const auto tally = [&](const R& result) {
    longest = std::max(longest, cost(result));
    total += cost(result);
  };
  if (config.worker_threads <= 1 || n <= 1) {
    for (std::size_t k = 0; k < n; ++k) {
      tally(out.emplace_back(task(k)));
    }
    return total;
  }
  const std::size_t workers = std::min(config.worker_threads, n);
  ThreadPool tp(workers);
  std::vector<std::future<R>> futures;
  futures.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    futures.push_back(tp.submit([&task, k] { return task(k); }));
  }
  for (auto& f : futures) {
    tally(out.emplace_back(f.get()));
  }
  return std::max(longest, total / workers);
}

/// The VMs that vote in one driver call: `subject` first when given, then
/// each requested id once (the first occurrence), never the subject again.
/// A repeated id would vote once per occurrence and, cached, hand two
/// parallel fetches one slot; a self-comparison always matches.
std::vector<vmm::DomainId> electorate(
    std::optional<vmm::DomainId> subject,
    const std::vector<vmm::DomainId>& requested) {
  std::vector<vmm::DomainId> vms;
  vms.reserve(requested.size() + 1);
  if (subject) {
    vms.push_back(*subject);
  }
  for (const vmm::DomainId vm : requested) {
    if (std::find(vms.begin(), vms.end(), vm) == vms.end()) {
      vms.push_back(vm);
    }
  }
  return vms;
}

/// One driver call's electorate and what its acquire round produced.
/// Index i names the same VM in every per-VM vector; `extractions` holds
/// the members acquired so far, with room reserved for every member, so a
/// reference to one stays valid while later members are appended.
struct Round {
  explicit Round(std::vector<vmm::DomainId> electorate)
      : vms(std::move(electorate)),
        slots(vms.size()),
        loaders(vms.size()),
        verdicts(vms.size()) {
    extractions.reserve(vms.size());
    for (std::size_t i = 0; i < vms.size(); ++i) {
      verdicts[i] = {.vm = vms[i], .peers_total = vms.size() - 1};
    }
  }

  std::vector<vmm::DomainId> vms;
  /// Scan-cache slots and loader snapshots; null for a fresh acquire.
  std::vector<CachedCopy*> slots;
  std::vector<LoaderSnapshot*> loaders;
  std::vector<Extraction> extractions;
  std::vector<PoolVmVerdict> verdicts;
  /// Every acquire's cost, faults and quarantine, in electorate order.
  ComponentTimes cpu_times;
  std::vector<FaultRecord> faults;
  std::vector<vmm::DomainId> quarantined;
};

/// acquire_round's continuation when a VM's task only acquires.
constexpr auto kAcquireOnly = [](std::size_t, Extraction&) {};

/// The acquire round: acquire_and_parse for the next `count` members of
/// `round` (through their cache slots, if any) via run_tasks, then the
/// per-VM bookkeeping.  `then(i, ex)` runs in member i's task right after
/// its acquire and may add to ex.times, which is the task's cost.  Returns
/// the round's wall time.
template <typename Then>
SimNanos acquire_round(CheckPipeline& p, const std::string& module_name,
                       Round& round, std::size_t count, Then&& then) {
  const std::size_t first = round.extractions.size();
  const SimNanos wall = run_tasks(
      p.context().config, count,
      [&](std::size_t k) {
        const std::size_t i = first + k;
        Extraction ex = p.acquire_and_parse(round.vms[i], module_name,
                                            round.slots[i], round.loaders[i]);
        then(i, ex);
        return ex;
      },
      [](const Extraction& ex) { return ex.times.total(); },
      round.extractions);
  // Every acquire that ran is billed, answered or not: a quarantined VM's
  // retries and backoff sleeps are time the checker spent.
  for (std::size_t i = first; i < round.extractions.size(); ++i) {
    Extraction& ex = round.extractions[i];
    round.cpu_times += ex.times;
    for (FaultRecord& fault : ex.faults) {
      round.faults.push_back(std::move(fault));
    }
    if (ex.unavailable) {
      round.verdicts[i].quarantined = true;
      round.quarantined.push_back(round.vms[i]);
    }
  }
  // A missing-but-answering VM counts as answered ("not loaded" is an
  // answer); only quarantined VMs erode their peers' quorum.
  const std::size_t answered =
      round.extractions.size() - round.quarantined.size();
  for (std::size_t i = 0; i < round.extractions.size(); ++i) {
    round.verdicts[i].peers_answered =
        answered - (round.extractions[i].unavailable ? 0 : 1);
  }
  return wall;
}

/// No digest-vector class: the copy takes no fast-path pair.
constexpr std::size_t kNoClass = static_cast<std::size_t>(-1);

/// Each found, parsed copy's digest-vector class in `canon` (kNoClass
/// when it is not eligible): two ids are equal iff the two vectors are.
/// A vector is compared with one member of each class until it matches,
/// so a clean pool of t copies costs t - 1 compares instead of the
/// t(t - 1)/2 of a per-pair compare.  Adds the compares to `compares`.
std::vector<std::size_t> digest_classes(const CanonicalPool* canon,
                                        const Round& round,
                                        std::size_t& compares) {
  std::vector<std::size_t> classes(round.vms.size(), kNoClass);
  std::vector<const std::vector<crypto::Digest>*> members;  // one per class
  for (std::size_t i = 0; canon != nullptr && i < classes.size(); ++i) {
    const Extraction& ex = round.extractions[i];
    if (!ex.found || ex.parse_failed || !canon->eligible(round.vms[i])) {
      continue;
    }
    const std::vector<crypto::Digest>& vector = canon->digests(round.vms[i]);
    std::size_t c = 0;
    for (; c < members.size(); ++c) {
      ++compares;
      if (*members[c] == vector) {
        break;
      }
    }
    if (c == members.size()) {
      members.push_back(&vector);
    }
    classes[i] = c;
  }
  return classes;
}

/// The vote: VoteStage::finalize under a "vote" span.
void finalize_votes(const CheckPipeline& p,
                    std::vector<PoolVmVerdict>& verdicts, bool peers_asked) {
  telemetry::SpanScope vote_span =
      telemetry::span(p.context().tracer, "vote", "pipeline",
                      p.context().config.trace_pid, 0);
  p.vote().finalize(verdicts, peers_asked);
  vote_span.arg("verdicts", std::uint64_t{verdicts.size()});
}

}  // namespace

// ---- Acquire ---------------------------------------------------------------

AcquireStage::Session::Session(CheckContext& ctx, vmm::DomainId vm,
                               SimClock& clock) {
  if (ctx.config.paper_faithful) {
    local_.emplace(*ctx.hypervisor, vm, clock, ctx.config.vmi_costs,
                   ctx.metrics);
  } else {
    lease_.emplace(ctx.session_pool.acquire(vm, clock));
  }
}

vmi::VmiSession& AcquireStage::Session::session() {
  return lease_ ? lease_->session() : *local_;
}

LoaderWalk AcquireStage::walk_loader(Session& s) const {
  return ModuleSearcher(s.session()).walk_loader();
}

std::optional<std::optional<ModuleImage>> AcquireStage::extract_with_retry(
    vmm::DomainId vm, const std::string& module_name, SimClock& clock,
    std::vector<FaultRecord>& faults, std::uint32_t& attempts) const {
  return acquire_with_retry<std::optional<ModuleImage>>(
      ctx_->config.retry, vm, clock, faults, attempts,
      [&]() -> Fallible<std::optional<ModuleImage>> {
        Session session(*ctx_, vm, clock);
        return ModuleSearcher(session.session())
            .try_extract_module(module_name);
      });
}

// ---- Parse -----------------------------------------------------------------

const ParsedModule& Extraction::copy() const {
  return cached != nullptr ? cached->parsed : parsed;
}

void ParseStage::parse(const ModuleImage& image, Extraction& ex) const {
  // Host CPU work, contention-scaled (Dom0 shares the physical cores with
  // the guests).
  ex.found = true;
  SimClock parser_clock;
  parser_clock.set_slowdown(ctx_->hypervisor->dom0_slowdown());
  try {
    ex.parsed = ctx_->parser.parse(image, parser_clock);
  } catch (const FormatError&) {
    // Corrupted PE structure (e.g. a tampered magic or header field that
    // breaks the walk): not a crash, a *finding*.
    ex.parse_failed = true;
  }
  ex.times.parser = parser_clock.now();
}

// ---- Normalize -------------------------------------------------------------

bool NormalizeStage::enabled() const {
  return !ctx_->config.paper_faithful;
}

const CanonicalPool* NormalizeStage::normalize(
    const std::vector<Extraction>& extractions, CanonicalState& state,
    SimClock& clock) const {
  if (!enabled()) {
    return nullptr;
  }
  const auto usable = [](const Extraction& ex) {
    return ex.found && !ex.parse_failed;
  };
  const auto generation = [](const Extraction& ex) {
    return ex.cached != nullptr ? ex.cached->generation : 0;
  };
  const auto ref = std::find_if(
      extractions.begin(), extractions.end(), [&](const Extraction& ex) {
        return state.pool && usable(ex) && ex.copy().domain == state.ref_vm;
      });

  if (ref == extractions.end() || state.ref_generation != generation(*ref)) {
    // No pool yet, or the borrowed reference changed content or left the
    // pool: O(t) rebuild with a fresh election, the cost a fresh scan pays
    // every time (an infected reference is voted out on the scan it does).
    std::vector<const ParsedModule*> copies;
    copies.reserve(extractions.size());
    state.generations.clear();
    for (const Extraction& ex : extractions) {
      if (usable(ex)) {
        copies.push_back(&ex.copy());
        state.generations[ex.copy().domain] = generation(ex);
      }
    }
    if (copies.empty()) {
      state.pool.reset();
      return nullptr;
    }
    state.pool.emplace(CanonicalPool::elect(
        copies, clock, ctx_->config.algorithm, ctx_->config.host_costs,
        ctx_->metrics));
    state.ref_vm = state.pool->reference_domain();
    state.ref_generation = state.generations.at(state.ref_vm);
    return &*state.pool;
  }

  // Stable reference: only changed copies re-normalize (O(changed)).
  for (const Extraction& ex : extractions) {
    if (&ex == &*ref || !usable(ex)) {
      continue;
    }
    const vmm::DomainId vm = ex.copy().domain;
    const auto it = state.generations.find(vm);
    const std::uint64_t have = it == state.generations.end() ? 0 : it->second;
    if (have != generation(ex)) {
      // The dirty-range mask is a faithful delta only when the pool saw
      // the generation just before one partial refresh; anything else
      // (full re-extraction, missed generations) updates every item.
      const bool masked = !ex.cached->last_changed_rvas.empty() &&
                          have + 1 == ex.cached->generation;
      state.pool->update(ex.copy(), clock,
                         masked ? &ex.cached->last_changed_rvas : nullptr);
      state.generations[vm] = ex.cached->generation;
    }
  }
  return &*state.pool;
}

std::optional<CanonicalPool> NormalizeStage::canonicalize(
    const std::vector<Extraction>& extractions, SimClock& clock) const {
  CanonicalState state;
  if (normalize(extractions, state, clock) == nullptr) {
    return std::nullopt;
  }
  return std::move(state.pool);
}

// ---- Compare ---------------------------------------------------------------

PairComparison CompareStage::compare(const ParsedModule& subject,
                                     const ParsedModule& other,
                                     SimClock& clock,
                                     DigestTable* memo) const {
  return ctx_->checker.compare(subject, other, clock, memo);
}

bool CompareStage::decide(const ParsedModule& subject,
                          const ParsedModule& other, SimClock& clock,
                          DigestTable& forms, DecideTally* tally,
                          const DeltaPlan* plan) const {
  return ctx_->checker.decide(subject, other, clock, forms, tally, plan);
}

// ---- Vote ------------------------------------------------------------------

void VoteStage::finalize(std::vector<PoolVmVerdict>& verdicts,
                         bool peers_asked) const {
  for (auto& v : verdicts) {
    v.clean = majority(v.successes, v.total);
    v.quorum_lost = (!v.quarantined || !peers_asked) &&
                    quorum_lost(v.peers_answered, v.peers_total);
  }
}

// ---- Drivers ---------------------------------------------------------------

Extraction CheckPipeline::acquire_and_parse(vmm::DomainId vm,
                                            const std::string& module_name,
                                            CachedCopy* cached,
                                            LoaderSnapshot* loader) {
  Extraction ex;
  ex.cached = cached;
  const std::uint64_t pid = ctx_->config.trace_pid;

  // Module-Searcher: all guest-memory access happens here.  By default the
  // per-domain session (and its V2P cache) survives across calls;
  // paper_faithful attaches fresh, as the paper's prototype does.  A guest
  // fault is retried under the config's RetryPolicy; a VM that exhausts
  // its attempts comes back `unavailable` (quarantined), never as an
  // exception.  On a fault-free run attempt 1 succeeds and the charges are
  // bit-identical to the pre-fault-domain pipeline.
  SimClock searcher_clock;
  telemetry::SpanScope acquire_span = telemetry::span(
      ctx_->tracer, "acquire", "pipeline", pid, vm, &searcher_clock);
  acquire_span.arg("module", module_name);
  // Engaged when the VM answered; then true when the module is loaded.
  std::optional<bool> loaded;
  std::optional<std::optional<ModuleImage>> fresh;
  const ModuleImage* to_parse = nullptr;  // null: nothing new to parse
  if (cached == nullptr) {
    fresh = acquire_.extract_with_retry(vm, module_name, searcher_clock,
                                        ex.faults, ex.attempts);
    if (fresh) {
      loaded = fresh->has_value();
      to_parse = *fresh ? &**fresh : nullptr;
    }
  } else {
    // An unchanged domain write generation replaces the session and the
    // list walk with one O(1) query; otherwise the cache fetch runs in the
    // retry loop like any acquire.
    vmm::WriteWatch& watches = ctx_->hypervisor->write_watch();
    const std::uint64_t generation = watches.domain_write_generation(vm);
    if (cached->reuse_if_current(generation)) {
      searcher_clock.advance_raw(ctx_->config.vmi_costs.watch_query);
      loaded = true;
    } else {
      loaded = acquire_with_retry<bool>(
          ctx_->config.retry, vm, searcher_clock, ex.faults, ex.attempts,
          [&]() -> Fallible<bool> {
            AcquireStage::Session session(*ctx_, vm, searcher_clock);
            return cached->refresh(acquire_, session, *loader, watches,
                                   module_name, generation,
                                   ctx_->config.host_costs.rva_scan_per_byte);
          });
    }
    if (!loaded) {
      cached->drop(watches);  // quarantined: re-extracted next scan
      loader->drop(watches);
    } else if (cached->last.content_changed) {
      to_parse = &cached->image;  // unchanged bytes keep the cached parse
    }
  }
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
  if (cached != nullptr && loaded) {
    acquire_span.arg("content_changed",
                     std::uint64_t{cached->last.content_changed ? 1u : 0u});
    if (cached->last.loader != CachedCopy::Loader::kNone) {
      acquire_span.arg(
          "loader",
          std::uint64_t{
              cached->last.loader == CachedCopy::Loader::kWalked ? 1u : 0u});
    }
  }

  if (!loaded) {
    ex.unavailable = true;  // never answered; found stays false
    ctx_->pm.quarantines.inc();
    acquire_span.arg("quarantined", std::uint64_t{1});
    return ex;
  }
  acquire_span.end();
  if (!*loaded) {
    return ex;  // answered: module not loaded here
  }
  if (to_parse == nullptr) {
    ex.found = true;  // the cached parse still holds
    ex.parse_failed = cached->parse_failed;
    return ex;
  }
  {
    telemetry::SpanScope parse_span =
        telemetry::span(ctx_->tracer, "parse", "pipeline", pid, vm);
    parse_span.arg("module", module_name);
    parse_.parse(*to_parse, ex);
    parse_span.arg("sim_ns", ex.times.parser);
    if (ex.parse_failed) {
      parse_span.arg("parse_failed", std::uint64_t{1});
    }
  }
  ctx_->pm.parse_ns.observe(ex.times.parser);
  if (ex.parse_failed) {
    ctx_->pm.parse_failures.inc();
  }
  if (cached != nullptr) {
    cached->parse_failed = ex.parse_failed;
    cached->parsed = std::move(ex.parsed);
  }
  return ex;
}

CheckReport CheckPipeline::check(vmm::DomainId subject,
                                 const std::string& module_name,
                                 const std::vector<vmm::DomainId>& raw_others) {
  const ModCheckerConfig& config = ctx_->config;
  ctx_->pm.checks.inc();
  Round round(electorate(subject, raw_others));
  const std::size_t peers = round.vms.size() - 1;
  telemetry::SpanScope check_span = telemetry::span(
      ctx_->tracer, "check", "pipeline", config.trace_pid, 0);
  check_span.arg("module", module_name);
  check_span.arg("peers", std::uint64_t{peers});
  CheckReport report;
  report.module_name = module_name;
  report.subject = subject;

  // The subject first: without its copy there is nothing to vote on, so a
  // subject that never answers leaves every peer untouched.  That is a
  // degraded outcome, not caller error; the module being genuinely absent
  // still throws.
  SimNanos wall = acquire_round(*this, module_name, round, 1, kAcquireOnly);
  const Extraction& subject_ex = round.extractions[0];
  report.subject_unavailable = subject_ex.unavailable;
  if (!report.subject_unavailable) {
    if (!subject_ex.found) {
      throw NotFoundError("module '" + module_name +
                          "' not loaded on subject VM " +
                          std::to_string(subject));
    }

    // Digest memo: the subject's raw-byte items are hashed once, not once
    // per peer, on the orchestrator's clock rather than in a worker task,
    // so parallel and sequential checks charge identical totals.
    std::optional<DigestTable> memo;
    if (!config.paper_faithful && !subject_ex.parse_failed) {
      memo.emplace(config.algorithm, config.host_costs, ctx_->metrics);
      SimClock preload_clock;
      preload_clock.set_slowdown(ctx_->hypervisor->dom0_slowdown());
      const std::vector<IntegrityItem>& items = subject_ex.parsed.items;
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (!items[i].rva_sensitive) {  // those are pair-specific
          memo->digest(subject, i, items[i], preload_clock);
        }
      }
      report.cpu_times.checker += preload_clock.now();
      wall += preload_clock.now();
    }

    // The subject's row: pair (0, k) for each peer k, through compare(),
    // so the report carries both digests of every item.  Peer k's task
    // compares right after its acquire, so it costs acquire plus compare:
    // the critical path of a parallel check.
    std::vector<PairComparison> row(peers);
    wall += acquire_round(
        *this, module_name, round, peers, [&](std::size_t k, Extraction& ex) {
          row[k - 1].other_domain = round.vms[k];
          if (!ex.found || ex.parse_failed || subject_ex.parse_failed) {
            return;
          }
          SimClock checker_clock;
          checker_clock.set_slowdown(ctx_->hypervisor->dom0_slowdown());
          telemetry::SpanScope compare_span =
              telemetry::span(ctx_->tracer, "compare", "pipeline",
                              config.trace_pid, round.vms[k], &checker_clock);
          row[k - 1] = compare_.compare(subject_ex.parsed, ex.parsed,
                                        checker_clock,
                                        memo ? &*memo : nullptr);
          ex.times.checker = checker_clock.now();
        });

    // Credit the row to the subject's (and each peer's) tally.  An
    // unparseable copy on either side never corroborates: its comparison
    // is a definite mismatch.
    std::set<std::string> flagged;
    if (subject_ex.parse_failed) {
      flagged.insert(kUnparseableItem);
    }
    for (std::size_t k = 1; k < round.vms.size(); ++k) {
      const Extraction& ex = round.extractions[k];
      if (!ex.found) {
        if (!ex.unavailable) {  // quarantined peers go to unavailable_on
          report.missing_on.push_back(round.vms[k]);
        }
        continue;
      }
      ++round.verdicts[0].total;
      ++round.verdicts[k].total;
      if (ex.parse_failed) {
        flagged.insert(kUnparseableItem);
      } else if (row[k - 1].all_match) {
        ++round.verdicts[0].successes;
        ++round.verdicts[k].successes;
      }
      for (const ItemComparison& item : row[k - 1].items) {
        if (!item.match) {
          flagged.insert(item.item_name);
        }
      }
      report.comparisons.push_back(std::move(row[k - 1]));
    }
    report.flagged_items.assign(flagged.begin(), flagged.end());
    report.unavailable_on = std::move(round.quarantined);
    ctx_->pm.compare_ns.observe(report.cpu_times.checker +
                                round.cpu_times.checker);
  }
  report.cpu_times += round.cpu_times;
  report.wall_time = wall;
  report.faults = std::move(round.faults);

  finalize_votes(*this, round.verdicts, !report.subject_unavailable);
  const PoolVmVerdict& verdict = round.verdicts[0];
  report.successes = verdict.successes;
  report.total_comparisons = verdict.total;
  report.subject_clean = verdict.clean;
  report.peers_total = verdict.peers_total;
  report.peers_answered = verdict.peers_answered;
  report.quorum_lost = verdict.quorum_lost;
  check_span.arg("sim_wall_ns", report.wall_time);
  return report;
}

PoolScanReport CheckPipeline::pool_scan(
    const std::string& module_name,
    const std::vector<vmm::DomainId>& requested, ScanCache* cache) {
  const ModCheckerConfig& config = ctx_->config;
  Round round(electorate(std::nullopt, requested));
  const std::vector<vmm::DomainId>& pool = round.vms;
  ctx_->pm.pool_scans.inc();
  telemetry::SpanScope scan_span = telemetry::span(
      ctx_->tracer, "pool_scan", "pipeline", config.trace_pid, 0);
  scan_span.arg("module", module_name);
  scan_span.arg("pool_size", std::uint64_t{pool.size()});
  PoolScanReport report;
  report.module_name = module_name;

  // Acquire + Parse every VM once, fresh or through its cache slot.  Slots
  // are inserted here, on the orchestrating thread, so parallel fetches
  // each touch only their own.
  ScanCache::Module* cached =
      cache != nullptr ? &cache->module(module_name) : nullptr;
  for (std::size_t i = 0; cached != nullptr && i < pool.size(); ++i) {
    round.slots[i] = &cached->copies[pool[i]];
    round.loaders[i] = &cache->loader(pool[i]);
  }
  report.wall_time =
      acquire_round(*this, module_name, round, pool.size(), kAcquireOnly);
  report.cpu_times = round.cpu_times;
  report.faults = std::move(round.faults);
  report.quarantined = std::move(round.quarantined);
  const std::vector<CachedCopy*>& slots = round.slots;
  std::vector<Extraction>& extractions = round.extractions;
  std::vector<PoolVmVerdict>& verdicts = round.verdicts;
  for (const auto& ex : extractions) {
    if (ex.cached != nullptr) {
      cache->account(*ex.cached);
    }
  }

  // Normalize: canonical-RVA reduction against an elected reference copy
  // (O(t) image work fresh, O(changed copies) against a cache's stable
  // reference); eligible pairs are then decided by digest-vector
  // comparison.  Any copy that does not reduce cleanly drops its pairs to
  // the exact pairwise fallback below — verdict-identical to the slow
  // path.
  SimClock canon_clock;
  canon_clock.set_slowdown(ctx_->hypervisor->dom0_slowdown());
  telemetry::SpanScope normalize_span = telemetry::span(
      ctx_->tracer, "normalize", "pipeline", config.trace_pid, 0,
      &canon_clock);
  CanonicalState fresh_state;
  const CanonicalPool* canon = normalize_.normalize(
      extractions, cached != nullptr ? cached->canon : fresh_state,
      canon_clock);
  const SimNanos normalize_ns = canon_clock.now();
  normalize_span.arg("fastpath_enabled",
                     std::uint64_t{canon != nullptr ? 1u : 0u});
  if (canon != nullptr) {
    normalize_span.arg("reference_vm",
                       std::uint64_t{canon->reference_domain()});
    normalize_span.arg("reelected",
                       std::uint64_t{canon->reelected() ? 1u : 0u});
  }
  normalize_span.end();
  ctx_->pm.normalize_ns.observe(normalize_ns);

  // Compare covers the rest of canon_clock (the fast-path digest-vector
  // decisions) plus every exact fallback pair.  A cache answers a fallback
  // pair whose two copies kept their generations since it was compared.
  telemetry::SpanScope compare_span = telemetry::span(
      ctx_->tracer, "compare", "pipeline", config.trace_pid, 0, &canon_clock);

  // Eligible copies' digest-vector classes, so a fast-path pair compares
  // two ids instead of two vectors.
  std::size_t vector_compares = 0;
  const std::vector<std::size_t> classes =
      digest_classes(canon, round, vector_compares);
  // Each unordered pair is decided once and credited to both VMs' tallies;
  // a quarantined VM has found == false, so the loops exclude it.
  std::vector<std::pair<std::size_t, std::size_t>> fallback;
  std::size_t reused_pairs = 0;
  const auto credit = [&](std::size_t i, std::size_t j, bool all_match) {
    if (all_match) {
      ++verdicts[i].successes;
      ++verdicts[j].successes;
    }
  };
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
      if (classes[i] != kNoClass && classes[j] != kNoClass) {
        ++report.fastpath_pairs;
        canon_clock.charge(config.host_costs.digest_pair_fixed);
        credit(i, j, classes[i] == classes[j]);
        continue;
      }
      const ScanCache::PairVerdict* known =
          cached != nullptr
              ? cached->verdict({pool[i], pool[j]},
                                {slots[i]->generation, slots[j]->generation})
              : nullptr;
      if (known != nullptr) {
        ++reused_pairs;
        credit(i, j, known->all_match);
      } else {
        fallback.push_back({i, j});
      }
    }
  }
  report.fallback_pairs = fallback.size() + reused_pairs;
  report.cpu_times.checker += canon_clock.now();
  report.wall_time += canon_clock.now();

  // Exact pairwise comparisons for the rest, each on its own clock.  They
  // share one table of content-verified digests, so a form many pairs
  // meet (typically an infected copy's adjusted item) is hashed once, and
  // one delta plan: each ineligible copy is diffed once against the
  // canonical forms here, so a pair with a settled peer pays for the bytes
  // where the copy differs, not for the image.  The paper_faithful scan
  // keeps the paper's full compare() per pair.
  struct Outcome {
    bool all_match = false;
    SimNanos ns = 0;
    DecideTally tally;
    std::size_t hashes = 0;
  };
  std::optional<DeltaPlan> plan;
  std::optional<DigestTable> forms;
  if (normalize_.enabled() && !fallback.empty()) {
    if (canon != nullptr) {
      std::vector<const ParsedModule*> patched;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (extractions[i].found && !extractions[i].parse_failed &&
            classes[i] == kNoClass) {
          patched.push_back(&extractions[i].copy());
        }
      }
      plan.emplace(canon->plan_fallback(patched));
    }
    forms.emplace(config.algorithm, config.host_costs, ctx_->metrics);
    if (plan) {
      plan->seed(*forms);
    }
  }
  std::vector<Outcome> outcomes;
  report.wall_time += run_tasks(
      config, fallback.size(),
      [&](std::size_t k) {
        SimClock pair_clock;
        pair_clock.set_slowdown(ctx_->hypervisor->dom0_slowdown());
        const auto [i, j] = fallback[k];
        const ParsedModule& a = extractions[i].copy();
        const ParsedModule& b = extractions[j].copy();
        Outcome o;
        if (forms) {
          o.all_match = compare_.decide(a, b, pair_clock, *forms, &o.tally,
                                        plan ? &*plan : nullptr);
        } else {
          const PairComparison cmp = compare_.compare(a, b, pair_clock);
          o.all_match = cmp.all_match;
          o.tally.items = cmp.items.size();
          for (const ItemComparison& item : cmp.items) {
            o.hashes += item.digest_subject.empty() ? 0u : 2u;
          }
        }
        o.ns = pair_clock.now();
        return o;
      },
      [](const Outcome& o) { return o.ns; }, outcomes);
  std::size_t fallback_items = 0;
  std::size_t fallback_hashes = forms ? forms->form_hashes() : 0;
  std::size_t delta_items = 0;
  std::array<std::size_t, kDeltaRefusalKinds> delta_refusals{};
  for (std::size_t k = 0; k < fallback.size(); ++k) {
    const auto [i, j] = fallback[k];
    credit(i, j, outcomes[k].all_match);
    report.cpu_times.checker += outcomes[k].ns;
    fallback_items += outcomes[k].tally.items;
    fallback_hashes += outcomes[k].hashes;
    delta_items += outcomes[k].tally.delta_items;
    for (std::size_t r = 0; r < kDeltaRefusalKinds; ++r) {
      delta_refusals[r] += outcomes[k].tally.refusals[r];
    }
    if (cached != nullptr) {
      cached->pairs[{pool[i], pool[j]}] = {
          {slots[i]->generation, slots[j]->generation},
          outcomes[k].all_match};
    }
  }
  if (cache != nullptr) {
    cache->account_pairs(reused_pairs, fallback.size());
  }

  compare_span.arg("fastpath_pairs", std::uint64_t{report.fastpath_pairs});
  compare_span.arg("fallback_pairs", std::uint64_t{report.fallback_pairs});
  compare_span.arg("fallback_items", std::uint64_t{fallback_items});
  compare_span.arg("fallback_hashes", std::uint64_t{fallback_hashes});
  compare_span.arg("delta_items", std::uint64_t{delta_items});
  for (std::size_t r = 0; r < kDeltaRefusalKinds; ++r) {
    if (compare_span) {
      compare_span.arg(std::string("delta_refusals.") +
                           delta_refusal_name(static_cast<DeltaRefusal>(r)),
                       std::uint64_t{delta_refusals[r]});
    }
    ctx_->pm.delta_refusals[r].inc(delta_refusals[r]);
  }
  compare_span.end();
  ctx_->pm.fastpath_pairs.inc(report.fastpath_pairs);
  ctx_->pm.fallback_pairs.inc(report.fallback_pairs);
  ctx_->pm.vector_compares.inc(vector_compares);
  ctx_->pm.fallback_items.inc(fallback_items);
  ctx_->pm.fallback_hashes.inc(fallback_hashes);
  ctx_->pm.delta_items.inc(delta_items);
  ctx_->pm.compare_ns.observe(report.cpu_times.checker - normalize_ns);

  finalize_votes(*this, verdicts, true);
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
        acquire_with_retry<std::vector<ModuleInfo>>(
            ctx_->config.retry, vm, clock, report.faults, attempts,
            [&]() -> Fallible<std::vector<ModuleInfo>> {
              AcquireStage::Session session(*ctx_, vm, clock);
              return ModuleSearcher(session.session()).try_list_modules();
            });
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
