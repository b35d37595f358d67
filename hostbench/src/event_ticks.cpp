// event_ticks: a closed loop on one thread of IncrementalScanner ticks (one
// scan of every module of a warm t=15 PE32 pool).  Before each tick the
// bench applies seeded write weather: benign same-value rewrites of 0%,
// 1%, 10% or 100% of the watched module pages, in a fixed interleaved
// schedule.  On a seeded share of ticks it injects a memory attack
// instead, which that tick must flag; the next tick restores the saved
// bytes and must read all-clean.
#include <algorithm>
#include <array>

#include "attacks/guest_writer.hpp"
#include "modchecker/incremental.hpp"
#include "workloads.hpp"

namespace hostbench {

using mc::core::IncrementalScanner;
using mc::core::PoolScanReport;
using mc::vmm::DomainId;

namespace {

constexpr std::array<int, 4> kLevels = {0, 1, 10, 100};  // % of pages
/// Each block of kBlock ticks holds one attack tick at a seeded position,
/// followed by its restore tick; the rest cycle through kLevels.
constexpr std::size_t kBlock = 16;
enum TickKind : std::size_t { kD0, kD1, kD10, kD100, kAttack, kRestore, kKinds };
const std::array<const char*, kKinds> kKindNames = {"d0",  "d1",     "d10",
                                                    "d100", "attack", "restore"};

struct Fixture {
  Pool pool;
  std::unique_ptr<IncrementalScanner> scanner;
  std::vector<PageRef> pages;
  Tally warmup;
};

std::unique_ptr<Fixture> build(std::uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  fx->pool = make_pe_pool(derive_seed(seed, 11), "pe32-watched");
  fx->scanner = std::make_unique<IncrementalScanner>(fx->pool.hypervisor());
  fx->pages = all_module_pages(fx->pool);
  for (const std::string& module : fx->pool.modules) {
    fx->warmup.record(verdicts_match(
        fx->scanner->scan(module, fx->pool.vms), fx->pool));
  }
  return fx;
}

/// A memory attack waiting for the next tick to restore it.
struct Pending {
  DomainId vm = 0;
  std::uint32_t base = 0;
  mc::Bytes saved;
};

/// Drives ticks and checks every verdict; shared by both phases.
class TickLoop {
 public:
  TickLoop(Fixture& fx, Rng& rng, RunResult& out)
      : fx_(&fx), rng_(&rng), out_(&out) {}

  /// Prepares the guests for the next tick and returns its kind.
  TickKind prepare() {
    Pool& pool = fx_->pool;
    expected_ = Truth{};
    if (pending_) {
      mc::attacks::GuestMemoryWriter writer(*pool.pe, pending_->vm);
      writer.write(pending_->base, mc::ByteView(pending_->saved));
      pending_.reset();
      ++tick_in_block_;
      return kRestore;
    }
    if (tick_in_block_ == kBlock) {
      tick_in_block_ = 0;
      attack_at_ = pick(*rng_, kBlock - 1);
    }
    if (tick_in_block_++ == attack_at_) {
      const MemoryAttack& attack =
          memory_attacks()[pick(*rng_, memory_attacks().size())];
      const DomainId vm = pool.vms[pick(*rng_, pool.vms.size())];
      Pending p;
      p.vm = vm;
      p.saved = mc::attacks::GuestMemoryWriter(*pool.pe, vm)
                    .read_module_image(attack.module, &p.base);
      apply_memory_attack(pool, attack, vm);
      expected_[attack.module].insert(vm);
      pending_ = std::move(p);
      return kAttack;
    }
    const std::size_t level = slot_++ % kLevels.size();
    const std::size_t pages = fx_->pages.size();
    std::size_t count = pages * static_cast<std::size_t>(kLevels[level]) / 100;
    if (kLevels[level] > 0 && count == 0) {
      count = 1;
    }
    apply_weather(pool, fx_->pages, count, *rng_, weather);
    return static_cast<TickKind>(level);
  }

  /// One tick: an incremental scan of every module.  Returns host ms.
  double tick(Tracer& tracer, std::uint64_t request) {
    Pool& pool = fx_->pool;
    reports_.clear();
    const std::int64_t t0 = now_ns();
    {
      SpanScope root(tracer, "tick", kNoParent, request);
      for (const std::string& module : pool.modules) {
        SpanScope s(tracer, "incremental.scan", root.id(), request);
        reports_.push_back(fx_->scanner->scan(module, pool.vms));
      }
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    bool ok = true;
    for (const PoolScanReport& report : reports_) {
      const auto it = expected_.find(report.module_name);
      ok = ok && verdicts_match(report, pool.vms,
                                it == expected_.end() ? std::set<DomainId>{}
                                                      : it->second);
    }
    out_->tally.record(ok);
    return ms;
  }

  WeatherStats weather;

 private:
  Fixture* fx_;
  Rng* rng_;
  RunResult* out_;
  std::size_t slot_ = 0;
  std::size_t tick_in_block_ = kBlock;
  std::size_t attack_at_ = 0;
  Truth expected_;
  std::optional<Pending> pending_;
  std::vector<PoolScanReport> reports_;
};

struct TickPhase {
  Phase phase;
  std::array<std::vector<double>, kKinds> by_kind;
  std::vector<std::pair<std::uint64_t, TickKind>> requests;
};

TickPhase run_phase(TickLoop& loop, Tracer& tracer, double seconds,
                    std::size_t modules) {
  TickPhase tp;
  // Weather writes are the guests' cost, not the checker's: the phase's
  // wall and CPU time leave them out like the tick times do.
  PhaseMeter meter(tp.phase, seconds);
  std::uint64_t request = 0;
  while (meter.running()) {
    meter.exclude_begin();
    const TickKind kind = loop.prepare();
    meter.exclude_end();
    const double ms = loop.tick(tracer, ++request);
    meter.done(ms, modules);
    tp.by_kind[kind].push_back(ms);
    tp.requests.emplace_back(request, kind);
  }
  meter.finish();
  return tp;
}

}  // namespace

RunResult run_event_ticks(const Options& opts) {
  RunResult out;
  double setup_s = 0;
  const std::unique_ptr<Fixture> fx =
      repeated_setup<Fixture>([&] { return build(opts.seed); }, setup_s);
  out.tally.add_failures(fx->warmup);
  const Phases phases = phases_for(opts);
  Rng rng(derive_seed(opts.seed, 12));
  TickLoop loop(*fx, rng, out);
  const std::size_t modules = fx->pool.modules.size();

  Tracer off(false);
  const TickPhase untraced = run_phase(loop, off, phases.untraced_s, modules);
  const WeatherStats weather = loop.weather;
  out.e2e = end_to_end(untraced.phase, setup_s);
  const Summary all = summarize(untraced.phase.op_ms);
  out.lines.push_back("end to end (host clock, untraced):");
  for (std::size_t k = 0; k < kKinds; ++k) {
    const Summary s = summarize(untraced.by_kind[k]);
    out.lines.push_back(row(std::string("tick_ms_p50.") + kKindNames[k], s.p50,
                            "ms", "n=" + std::to_string(s.n)));
  }
  out.lines.push_back(row("tick_ms_p99", all.p99, "ms", "n=" + std::to_string(all.n)));
  out.lines.push_back(row("tick_ms_" + all.tail.label(), all.tail.value, "ms",
                          "highest percentile with >=10 beyond, n=" +
                              std::to_string(all.n)));
  out.lines.push_back(row(
      "guest_write_us_per_page",
      weather.pages > 0 ? static_cast<double>(weather.write_ns) * 1e-3 /
                              static_cast<double>(weather.pages)
                        : 0.0,
      "us", std::to_string(weather.pages) + " pages of " +
                std::to_string(fx->pages.size()) + " watched, " +
                std::to_string(kWeatherBytes) + " B same-value rewrite each"));
  if (!opts.trace) {
    return out;
  }

  const mc::core::IncrementalStats before = fx->scanner->stats();
  loop.weather = WeatherStats{};
  Tracer tracer(true);
  const TickPhase traced = run_phase(loop, tracer, phases.traced_s, modules);
  const mc::core::IncrementalStats after = fx->scanner->stats();

  const std::vector<Span> spans = tracer.spans();
  const auto self = self_by_request(spans);
  std::map<std::string, double> layers;
  const auto& scan_self = self.at("incremental.scan");
  for (std::size_t k = kD0; k <= kD100; ++k) {
    std::vector<double> v;
    for (const auto& [request, kind] : traced.requests) {
      if (kind == k) {
        const auto it = scan_self.find(request);
        v.push_back(it == scan_self.end() ? 0.0
                                          : static_cast<double>(it->second) * 1e-6);
      }
    }
    layers[std::string("incremental.scan_ms.") + kKindNames[k]] = summarize(v).p50;
  }
  layers["incremental.frames_reread"] =
      static_cast<double>(after.frames_reread - before.frames_reread);
  layers["incremental.partial_refreshes"] =
      static_cast<double>(after.partial_refreshes - before.partial_refreshes);
  layers["incremental.full_extractions"] =
      static_cast<double>(after.full_extractions - before.full_extractions);
  const double lookups =
      static_cast<double>(traced.requests.size() * modules * fx->pool.vms.size());
  layers["incremental.reuse_ratio"] =
      static_cast<double>(after.cache_reuses - before.cache_reuses) / lookups;
  layers["vmm.write_us"] = summarize(loop.weather.batch_write_us).p50;
  layers["vmm.pages_dirtied"] = static_cast<double>(loop.weather.pages);
  const Summary off_s = summarize(untraced.phase.op_ms);
  {
    // The tick span's own time is the loop around the module scans.
    const auto& tick_self = self.at("tick");
    std::vector<double> v;
    for (const auto& [request, ns] : tick_self) {
      v.push_back(static_cast<double>(ns + scan_self.at(request)) * 1e-6);
    }
    layers["trace.unaccounted_ms"] = off_s.p50 - summarize(v).p50;
  }
  layers["trace.spans"] = static_cast<double>(spans.size());
  add_trace_overhead(out, layers, untraced.phase, traced.phase, setup_s);
  out.layers = fill_layers(layers);
  return out;
}

}  // namespace hostbench
