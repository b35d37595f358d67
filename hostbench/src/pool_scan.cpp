// pool_scan: a closed loop on one thread of fresh ModChecker::scan_pool
// calls.  Each call scans one seeded (pool, module) pair drawn from four
// t=15 pools: a clean PE32 pool, a clean ELF64 pool, and one of each
// format with attacks applied at set-up.
//
// The traced run drives the same stage sequence through
// ModChecker::pipeline()'s accessors, in pool_scan's order, with a span
// around each stage call, and checks that its verdicts equal scan_pool's.
#include <algorithm>
#include <cmath>
#include <optional>

#include "modchecker/modchecker.hpp"
#include "modchecker/report_json.hpp"
#include "crypto/md5.hpp"
#include "workloads.hpp"

namespace hostbench {

using mc::core::Extraction;
using mc::core::ModChecker;
using mc::core::PoolScanReport;
using mc::core::PoolVmVerdict;
using mc::vmm::DomainId;

namespace {

struct Fixture {
  std::vector<Pool> pools;
  std::vector<std::unique_ptr<ModChecker>> checkers;
  Tally warmup;
};

std::unique_ptr<Fixture> build(std::uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  fx->pools.push_back(make_pe_pool(derive_seed(seed, 1), "pe32-clean"));
  fx->pools.push_back(make_elf_pool(derive_seed(seed, 2), "elf64-clean"));
  fx->pools.push_back(make_pe_pool(derive_seed(seed, 3), "pe32-infected"));
  fx->pools.push_back(make_elf_pool(derive_seed(seed, 4), "elf64-infected"));
  infect_pe(fx->pools[2], derive_seed(seed, 5));
  infect_elf(fx->pools[3], derive_seed(seed, 6));
  for (Pool& pool : fx->pools) {
    fx->checkers.push_back(std::make_unique<ModChecker>(pool.hypervisor()));
  }
  // Warm-up: one scan of every (pool, module) opens the sessions and
  // checks the ground truth once before anything is timed.
  for (std::size_t p = 0; p < fx->pools.size(); ++p) {
    for (const std::string& module : fx->pools[p].modules) {
      fx->warmup.record(verdicts_match(
          fx->checkers[p]->scan_pool(module, fx->pools[p].vms), fx->pools[p]));
    }
  }
  return fx;
}

struct Draw {
  std::size_t pool = 0;
  std::size_t module = 0;
};

/// Every (pool, module) pair once per round, in a seeded order per round:
/// the seed decides the order, never the mix.
class Deck {
 public:
  Deck(const Fixture& fx, std::uint64_t seed) : rng_(seed) {
    for (std::size_t p = 0; p < fx.pools.size(); ++p) {
      for (std::size_t m = 0; m < fx.pools[p].modules.size(); ++m) {
        cards_.push_back({p, m});
      }
    }
    next_ = cards_.size();
  }
  Draw next() {
    if (next_ == cards_.size()) {
      for (std::size_t i = 0; i + 1 < cards_.size(); ++i) {
        std::swap(cards_[i], cards_[i + pick(rng_, cards_.size() - i)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  Rng rng_;
  std::vector<Draw> cards_;
  std::size_t next_ = 0;
};

bool infected(const Fixture& fx, const Draw& d) {
  const Pool& pool = fx.pools[d.pool];
  return pool.truth.count(pool.modules[d.module]) != 0;
}

/// What one traced scan measured besides its spans.
struct TracedScan {
  PoolScanReport report;
  std::vector<Extraction> extractions;
  double acquire_bytes = 0;
  double normalize_bytes = 0;
  double json_bytes = 0;
  double sim_acquire_ns = 0;
  double sim_parse_ns = 0;
  double sim_normalize_ns = 0;
  double sim_compare_ns = 0;
  std::size_t parse_failures = 0;
};

/// CheckPipeline::pool_scan's sequential path, stage by stage.  Like
/// pool_scan, the scan releases its extractions before it ends, unless
/// `keep` asks to return them (for the MD5 measurement).
TracedScan traced_scan(ModChecker& checker, const std::string& module,
                       const std::vector<DomainId>& pool, Tracer& tr,
                       std::uint64_t request, bool keep) {
  mc::core::CheckPipeline& p = checker.pipeline();
  const double slowdown = p.context().hypervisor->dom0_slowdown();
  const auto& host_costs = p.context().config.host_costs;
  TracedScan out;
  PoolScanReport& report = out.report;
  report.module_name = module;
  std::vector<Extraction>& exs = out.extractions;
  {
    SpanScope root(tr, "scan", kNoParent, request);
    // 1. Acquire + Parse for each VM.
    for (const DomainId vm : pool) {
      Extraction ex;
      std::optional<std::optional<mc::core::ModuleImage>> image;
      {
        SpanScope s(tr, "acquire", root.id(), request);
        mc::SimClock clock;
        image = p.acquire().extract_with_retry(vm, module, clock, ex.faults,
                                               ex.attempts);
        ex.times.searcher = clock.now();
      }
      if (!image) {
        ex.unavailable = true;
      } else if (*image) {
        out.acquire_bytes += static_cast<double>((*image)->size());
        SpanScope s(tr, "parse", root.id(), request);
        p.parse().parse(**image, ex);
      }
      out.sim_acquire_ns += static_cast<double>(ex.times.searcher);
      out.sim_parse_ns += static_cast<double>(ex.times.parser);
      out.parse_failures += ex.parse_failed ? 1 : 0;
      report.cpu_times += ex.times;
      exs.push_back(std::move(ex));
    }
    std::vector<PoolVmVerdict> verdicts(pool.size());
    std::size_t answered = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      verdicts[i].vm = pool[i];
      verdicts[i].peers_total = pool.size() - 1;
      if (exs[i].unavailable) {
        verdicts[i].quarantined = true;
        report.quarantined.push_back(pool[i]);
      } else {
        ++answered;
      }
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      verdicts[i].peers_answered = answered - (exs[i].unavailable ? 0 : 1);
    }
    // 2. Normalize.
    mc::SimClock canon_clock;
    canon_clock.set_slowdown(slowdown);
    std::optional<mc::core::CanonicalPool> canon;
    {
      SpanScope s(tr, "normalize", root.id(), request);
      canon = p.normalize().canonicalize(exs, canon_clock);
    }
    const mc::SimNanos normalize_ns = canon_clock.now();
    out.sim_normalize_ns = static_cast<double>(normalize_ns);
    for (const Extraction& ex : exs) {
      if (ex.found && !ex.parse_failed) {
        for (const auto& item : ex.parsed.items) {
          out.normalize_bytes += static_cast<double>(item.content_size());
        }
      }
    }
    // 3. Compare: digest vectors where both copies are eligible, the exact
    // pairwise comparison for the rest.
    {
      SpanScope cs(tr, "compare", root.id(), request);
      mc::SimNanos fallback_ns = 0;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (!exs[i].found) {
          continue;
        }
        for (std::size_t j = i + 1; j < pool.size(); ++j) {
          if (!exs[j].found) {
            continue;
          }
          ++verdicts[i].total;
          ++verdicts[j].total;
          if (exs[i].parse_failed || exs[j].parse_failed) {
            continue;
          }
          bool match = false;
          if (canon && canon->eligible(pool[i]) && canon->eligible(pool[j])) {
            ++report.fastpath_pairs;
            canon_clock.charge(host_costs.digest_pair_fixed);
            match = canon->digests(pool[i]) == canon->digests(pool[j]);
          } else {
            ++report.fallback_pairs;
            SpanScope fs(tr, "compare.fallback", cs.id(), request);
            mc::SimClock pair_clock;
            pair_clock.set_slowdown(slowdown);
            match = p.compare()
                        .compare(exs[i].parsed, exs[j].parsed, pair_clock)
                        .all_match;
            fallback_ns += pair_clock.now();
          }
          if (match) {
            ++verdicts[i].successes;
            ++verdicts[j].successes;
          }
        }
      }
      out.sim_compare_ns =
          static_cast<double>(canon_clock.now() - normalize_ns + fallback_ns);
      report.cpu_times.checker += canon_clock.now() + fallback_ns;
    }
    // 4. Vote.
    {
      SpanScope s(tr, "vote", root.id(), request);
      p.vote().finalize(verdicts);
    }
    report.verdicts = std::move(verdicts);
    if (!keep) {
      std::vector<Extraction>().swap(exs);
    }
  }
  // 5. Report serialization: its own root span of the same request, since
  // scan_pool (the untraced operation) does not serialize.
  {
    SpanScope s(tr, "report", kNoParent, request);
    out.json_bytes = static_cast<double>(mc::core::to_json(report).size());
  }
  return out;
}

bool same_verdicts(const PoolScanReport& a, const PoolScanReport& b) {
  if (a.verdicts.size() != b.verdicts.size() ||
      a.fastpath_pairs != b.fastpath_pairs ||
      a.fallback_pairs != b.fallback_pairs) {
    return false;
  }
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    const PoolVmVerdict& x = a.verdicts[i];
    const PoolVmVerdict& y = b.verdicts[i];
    if (x.vm != y.vm || x.clean != y.clean || x.successes != y.successes ||
        x.total != y.total || x.quorum_lost != y.quorum_lost) {
      return false;
    }
  }
  return true;
}

/// MD5 over the items of saved extractions: host ns per byte.
double md5_ns_per_byte(const std::vector<std::vector<Extraction>>& saved) {
  double bytes = 0;
  std::int64_t ns = 0;
  const std::int64_t start = now_ns();
  do {
    for (const auto& exs : saved) {
      for (const Extraction& ex : exs) {
        if (!ex.found || ex.parse_failed) {
          continue;
        }
        for (const auto& item : ex.parsed.items) {
          mc::crypto::Md5 md5;
          const std::int64_t t0 = now_ns();
          item.for_each_span([&](mc::ByteView span) { md5.update(span); });
          md5.finish();
          ns += now_ns() - t0;
          bytes += static_cast<double>(item.content_size());
        }
      }
    }
  } while (now_ns() - start < 100'000'000);  // at least 0.1 s of hashing
  return bytes > 0 ? static_cast<double>(ns) / bytes : 0.0;
}

double median_ms(const std::map<std::uint64_t, std::int64_t>& per_request,
                 const std::vector<std::uint64_t>& requests) {
  std::vector<double> v;
  for (const std::uint64_t r : requests) {
    const auto it = per_request.find(r);
    v.push_back(it == per_request.end() ? 0.0
                                        : static_cast<double>(it->second) * 1e-6);
  }
  return summarize(v).p50;
}

}  // namespace

RunResult run_pool_scan(const Options& opts) {
  RunResult out;
  double setup_s = 0;
  const std::unique_ptr<Fixture> fx =
      repeated_setup<Fixture>([&] { return build(opts.seed); }, setup_s);
  out.tally.add_failures(fx->warmup);
  const Phases phases = phases_for(opts);
  Deck deck(*fx, derive_seed(opts.seed, 7));
  add_infection_lines(out, fx->pools);

  // ---- untraced closed loop ----
  Phase phase;
  std::vector<double> infected_ms;
  {
    PhaseMeter meter(phase, phases.untraced_s);
    while (meter.running()) {
      const Draw d = deck.next();
      Pool& pool = fx->pools[d.pool];
      const std::int64_t t0 = now_ns();
      const PoolScanReport report =
          fx->checkers[d.pool]->scan_pool(pool.modules[d.module], pool.vms);
      const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
      meter.done(ms, 1);
      if (infected(*fx, d)) {
        infected_ms.push_back(ms);
      }
      out.tally.record(verdicts_match(report, pool));
    }
    meter.finish();
  }
  const Summary scan = summarize(phase.op_ms);
  const Summary inf = summarize(infected_ms);
  out.e2e = end_to_end(phase, setup_s);
  out.lines.push_back("end to end (host clock, untraced):");
  out.lines.push_back(row("scan_ms_p50", scan.p50, "ms", "n=" + std::to_string(scan.n)));
  out.lines.push_back(row("scan_ms_p99", scan.p99, "ms", "n=" + std::to_string(scan.n)));
  out.lines.push_back(row("scan_ms_" + scan.tail.label(), scan.tail.value, "ms",
                          "highest percentile with >=10 beyond: " +
                              std::to_string(scan.tail.beyond) + " of n=" +
                              std::to_string(scan.n)));
  out.lines.push_back(row("infected_scan_ms_p50", inf.p50, "ms",
                          "n=" + std::to_string(inf.n)));
  if (!opts.trace) {
    return out;
  }

  // ---- traced closed loop ----
  // scan_pool's verdicts per (pool, module), for the equivalence check.
  std::map<std::pair<std::size_t, std::size_t>, PoolScanReport> reference;
  for (std::size_t p = 0; p < fx->pools.size(); ++p) {
    for (std::size_t m = 0; m < fx->pools[p].modules.size(); ++m) {
      reference[{p, m}] =
          fx->checkers[p]->scan_pool(fx->pools[p].modules[m], fx->pools[p].vms);
    }
  }
  const auto attaches0 = [&] {
    std::uint64_t n = 0;
    for (const auto& c : fx->checkers) {
      n += c->session_pool_stats().created;
    }
    return n;
  };
  const std::uint64_t created_before = attaches0();
  Tracer tracer(true);
  Phase traced;
  std::vector<std::uint64_t> requests;
  std::vector<std::uint64_t> fallback_requests;
  std::vector<std::vector<Extraction>> saved;
  double acquire_bytes = 0, normalize_bytes = 0, json_bytes = 0;
  double sim_acquire = 0, sim_parse = 0, sim_normalize = 0, sim_compare = 0;
  double fastpath = 0, fallback = 0, parse_failures = 0;
  {
    PhaseMeter meter(traced, phases.traced_s);
    std::uint64_t request = 0;
    while (meter.running()) {
      const Draw d = deck.next();
      Pool& pool = fx->pools[d.pool];
      ++request;
      const std::int64_t t0 = now_ns();
      TracedScan ts = traced_scan(*fx->checkers[d.pool], pool.modules[d.module],
                                  pool.vms, tracer, request, saved.size() < 64);
      meter.done(static_cast<double>(now_ns() - t0) * 1e-6, 1);
      requests.push_back(request);
      out.tally.record(verdicts_match(ts.report, pool) &&
                       same_verdicts(ts.report, reference[{d.pool, d.module}]));
      acquire_bytes += ts.acquire_bytes;
      normalize_bytes += ts.normalize_bytes;
      json_bytes += ts.json_bytes;
      sim_acquire += ts.sim_acquire_ns;
      sim_parse += ts.sim_parse_ns;
      sim_normalize += ts.sim_normalize_ns;
      sim_compare += ts.sim_compare_ns;
      fastpath += static_cast<double>(ts.report.fastpath_pairs);
      fallback += static_cast<double>(ts.report.fallback_pairs);
      if (ts.report.fallback_pairs > 0) {
        fallback_requests.push_back(request);
      }
      parse_failures += static_cast<double>(ts.parse_failures);
      if (!ts.extractions.empty()) {
        saved.push_back(std::move(ts.extractions));
      }
    }
    meter.finish();
  }
  const std::uint64_t attaches = attaches0() - created_before;
  const double md5_ns_b = md5_ns_per_byte(saved);
  saved.clear();

  const std::vector<Span> spans = tracer.spans();
  const auto self = self_by_request(spans);
  // A traced operation lasts as long as its scan span.
  traced.op_ms.clear();
  for (const Span& span : spans) {
    if (span.name == "scan") {
      traced.op_ms.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  auto layer_ms = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median_ms(it->second, requests);
  };
  auto layer_total_ns = [&](const std::string& name) {
    double total = 0;
    const auto it = self.find(name);
    if (it != self.end()) {
      for (const auto& [req, ns] : it->second) {
        total += static_cast<double>(ns);
      }
    }
    return total;
  };
  const double scans = static_cast<double>(traced.scans);
  std::map<std::string, double> layers;
  layers["acquire.ms"] = layer_ms("acquire");
  layers["acquire.bytes"] = acquire_bytes / scans;
  layers["acquire.session_attaches"] = static_cast<double>(attaches);
  layers["parse.ms"] = layer_ms("parse");
  layers["parse.failures"] = parse_failures;
  layers["normalize.ms"] = layer_ms("normalize");
  layers["normalize.bytes"] = normalize_bytes / scans;
  layers["crypto.md5_ns_per_byte"] = md5_ns_b;
  layers["compare.fastpath_pairs"] = fastpath;
  layers["compare.fallback_pairs"] = fallback;
  layers["compare.fastpath_ratio"] =
      fastpath + fallback > 0 ? fastpath / (fastpath + fallback) : 0.0;
  {
    const auto it = self.find("compare.fallback");
    layers["compare.fallback_ms"] =
        it == self.end() ? 0.0 : median_ms(it->second, fallback_requests);
  }
  layers["vote.us"] = layer_ms("vote") * 1e3;
  layers["report.json_us"] = layer_ms("report") * 1e3;
  layers["report.json_bytes"] = json_bytes / scans;

  // Self-time accounting: per traced scan, the stage spans' self times
  // versus the bench's own time around them (the scan span's self time).
  const Summary on = summarize(traced.op_ms);
  std::vector<double> stage_sums;
  std::vector<double> bench_self;
  for (const std::uint64_t r : requests) {
    double sum = 0;
    for (const char* name : {"acquire", "parse", "normalize", "compare",
                             "compare.fallback", "vote"}) {
      const auto it = self.find(name);
      if (it != self.end() && it->second.count(r) != 0) {
        sum += static_cast<double>(it->second.at(r)) * 1e-6;
      }
    }
    stage_sums.push_back(sum);
    bench_self.push_back(static_cast<double>(self.at("scan").at(r)) * 1e-6);
  }
  const double accounted = summarize(stage_sums).p50;
  const double bench_ms = summarize(bench_self).p50;
  layers["trace.unaccounted_ms"] = scan.p50 - accounted;
  layers["trace.spans"] = static_cast<double>(spans.size());
  add_trace_overhead(out, layers, phase, traced, setup_s);
  out.layers = fill_layers(layers);

  const double overhead = on.p50 - scan.p50;
  const double gap = scan.p50 - accounted;
  out.lines.push_back("self-time accounting (pool_scan, per-scan medians):");
  out.lines.push_back(row("stage self times", accounted, "ms",
                          "acquire + parse + normalize + compare + vote"));
  out.lines.push_back(row("bench self time", bench_ms, "ms",
                          "inside the scan span, outside every stage"));
  out.lines.push_back(row("untraced scan_ms_p50", scan.p50, "ms"));
  out.lines.push_back(row(
      "unaccounted", gap, "ms",
      std::string(std::abs(gap) <= std::abs(overhead) + bench_ms ? "within"
                                                                   : "NOT within") +
          " |tracing overhead| " + std::to_string(std::abs(overhead)) +
          " ms + bench self time"));
  const double acq_total = layer_total_ns("acquire");
  const double parse_total = layer_total_ns("parse");
  const double norm_total = layer_total_ns("normalize");
  const double cmp_total = layer_total_ns("compare") + layer_total_ns("compare.fallback");
  const double hash_sim = static_cast<double>(
      fx->checkers[0]->config().host_costs.hash_per_byte);
  out.lines.push_back("calibration (host clock vs the cost model; clock: sim rows are never gated):");
  out.lines.push_back(row("acquire host ns/B", acq_total / acquire_bytes, "ns/B", "clock: host"));
  out.lines.push_back(row("acquire sim ns/B", sim_acquire / acquire_bytes, "ns/B", "clock: sim"));
  out.lines.push_back(row("parse host ns/B", parse_total / acquire_bytes, "ns/B", "clock: host"));
  out.lines.push_back(row("parse sim ns/B", sim_parse / acquire_bytes, "ns/B", "clock: sim"));
  out.lines.push_back(row("normalize host ns/B", norm_total / normalize_bytes, "ns/B", "clock: host"));
  out.lines.push_back(row("normalize sim ns/B", sim_normalize / normalize_bytes, "ns/B", "clock: sim"));
  out.lines.push_back(row("compare host ms/scan", cmp_total * 1e-6 / scans, "ms", "clock: host"));
  out.lines.push_back(row("compare sim ms/scan", sim_compare * 1e-6 / scans, "ms", "clock: sim"));
  out.lines.push_back(row("md5 host ns/B", md5_ns_b, "ns/B", "clock: host"));
  out.lines.push_back(row("md5 sim ns/B", hash_sim, "ns/B", "clock: sim (HostCostModel::hash_per_byte)"));
  return out;
}

}  // namespace hostbench
