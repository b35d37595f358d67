// fleet: a service::ShardCoordinator over 16 mixed PE32/ELF64 t=15 pools,
// four of them infected.  Worker threads stay within the host's CPUs (two
// per shard).  The single bench thread keeps twice as many one-shot sweeps
// outstanding as there are workers (a closed loop); each sweep is a seeded
// choice of a full or an event-driven sweep of every module on one seeded
// pool.  Between submissions, benign write weather lands on a seeded pool,
// but only when that pool has no sweep in flight.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "service/coordinator.hpp"
#include "service/report.hpp"
#include "workloads.hpp"

namespace hostbench {

using mc::service::ShardCoordinator;
using mc::service::SweepId;
using mc::service::SweepReport;

namespace {

constexpr std::size_t kPools = 16;
constexpr std::size_t kWeatherPagesPct = 2;  // % of one pool's module pages

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One completed sweep as the sink saw it.
struct Done {
  std::uint64_t seq = 0;
  SweepId id = 0;
  std::size_t pool = 0;
  std::int64_t emit_ns = 0;      // report handed to the sink
  std::int64_t sink_end_ns = 0;  // sink finished serializing and checking
  std::int64_t json_ns = 0;
  std::size_t json_bytes = 0;
  std::size_t scans = 0;
  bool ok = false;
};

/// Serializes every report (the JSON-lines sink's work), checks it against
/// ground truth and hands the completion to the bench thread.
class BenchSink : public mc::service::SweepSink {
 public:
  explicit BenchSink(const std::vector<Pool>& pools)
      : pools_(&pools), inflight_(pools.size(), 0) {}

  void on_sweep(const SweepReport& report) override {
    Done d;
    d.emit_ns = now_ns();
    d.seq = std::stoull(report.name);
    d.id = report.id;
    d.pool = report.pool_index;
    const std::string json = mc::service::to_json(report);
    d.json_ns = now_ns() - d.emit_ns;
    d.json_bytes = json.size();
    const Pool& pool = (*pools_)[report.pool_index];
    d.scans = report.scans.size();
    d.ok = !report.cancelled && report.scans.size() == pool.modules.size();
    for (const auto& scan : report.scans) {
      d.ok = d.ok && verdicts_match(scan, pool);
    }
    d.sink_end_ns = now_ns();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --inflight_[d.pool];
      done_.push_back(d);
    }
    cv_.notify_all();
  }

  void submitted(std::size_t pool) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++inflight_[pool];
  }
  void dropped(std::size_t pool) {
    std::lock_guard<std::mutex> lock(mutex_);
    --inflight_[pool];
  }
  bool idle(std::size_t pool) {
    std::lock_guard<std::mutex> lock(mutex_);
    return inflight_[pool] == 0;
  }
  /// Blocks until at least one completion is queued; returns them all.
  /// Throws when none arrives in kStallS: a sweep was lost.
  std::deque<Done> wait() {
    static constexpr std::chrono::seconds kStallS{30};
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, kStallS, [&] { return !done_.empty(); })) {
      throw std::runtime_error("fleet: no sweep completed for 30 s");
    }
    std::deque<Done> out;
    out.swap(done_);
    return out;
  }

 private:
  const std::vector<Pool>* pools_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::size_t> inflight_;
  std::deque<Done> done_;
};

/// Module-hook times per sweep (traced phase only).
class HookLog {
 public:
  void on_module(SweepId id) {
    if (!enabled.load(std::memory_order_relaxed)) {
      return;
    }
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    times_[id].push_back(t);
  }
  std::vector<std::int64_t> take(SweepId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = times_.find(id);
    if (it == times_.end()) {
      return {};
    }
    std::vector<std::int64_t> out = std::move(it->second);
    times_.erase(it);
    return out;
  }
  std::atomic<bool> enabled{false};

 private:
  std::mutex mutex_;
  std::map<SweepId, std::vector<std::int64_t>> times_;
};

struct Fixture {
  std::vector<Pool> pools;
  std::vector<std::vector<PageRef>> pages;
  std::shared_ptr<BenchSink> sink;
  std::shared_ptr<HookLog> hooks;
  std::size_t workers = 0;
  std::size_t shards = 0;
  // Declared last: stopped and destroyed before the pools it scans.
  std::unique_ptr<ShardCoordinator> coordinator;
  Tally warmup;
};

/// The bench thread's side of the closed loop.
class Client {
 public:
  Client(Fixture& fx, Rng& rng) : fx_(&fx), rng_(&rng) {}

  /// Submits one sweep of every module on `pool`; false if it was dropped.
  bool submit(std::size_t pool, bool event_driven, Tally& tally) {
    mc::service::SweepSpec spec;
    spec.name = std::to_string(++seq_);
    spec.pool_index = pool;
    spec.modules = fx_->pools[pool].modules;
    spec.event_driven = event_driven;
    submit_ns_[seq_] = now_ns();
    fx_->sink->submitted(pool);
    if (fx_->coordinator->submit(std::move(spec)) == 0) {
      fx_->sink->dropped(pool);
      submit_ns_.erase(seq_);
      tally.record_dropped();
      return false;
    }
    ++outstanding_;
    return true;
  }

  /// Seeded weather on a seeded pool, only if nothing is in flight there.
  /// Returns the bench thread's CPU seconds spent writing.
  double weather() {
    const std::size_t pool = pick(*rng_, fx_->pools.size());
    if (!fx_->sink->idle(pool)) {
      return 0.0;
    }
    const double c0 = thread_cpu_s();
    const std::vector<PageRef>& pages = fx_->pages[pool];
    apply_weather(fx_->pools[pool], pages,
                  std::max<std::size_t>(1, pages.size() * kWeatherPagesPct / 100),
                  *rng_, weather_stats);
    return thread_cpu_s() - c0;
  }

  /// A seeded pool among those with no sweep in flight (sweeps of one
  /// pool serialize on its lock, which would idle a worker).
  std::size_t idle_pool() {
    std::vector<std::size_t> idle;
    for (std::size_t p = 0; p < fx_->pools.size(); ++p) {
      if (fx_->sink->idle(p)) {
        idle.push_back(p);
      }
    }
    return idle.empty() ? pick(*rng_, fx_->pools.size())
                        : idle[pick(*rng_, idle.size())];
  }

  /// Waits for completions; returns them with their submit times.
  std::vector<std::pair<Done, std::int64_t>> collect() {
    std::vector<std::pair<Done, std::int64_t>> out;
    for (const Done& d : fx_->sink->wait()) {
      out.emplace_back(d, submit_ns_.at(d.seq));
      submit_ns_.erase(d.seq);
      --outstanding_;
    }
    return out;
  }

  std::size_t outstanding() const { return outstanding_; }

  WeatherStats weather_stats;

 private:
  Fixture* fx_;
  Rng* rng_;
  std::uint64_t seq_ = 0;
  std::size_t outstanding_ = 0;
  std::map<std::uint64_t, std::int64_t> submit_ns_;
};

std::unique_ptr<Fixture> build(std::uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  for (std::size_t i = 0; i < kPools; ++i) {
    const std::uint64_t s = derive_seed(seed, 100 + i);
    const std::string label = std::to_string(i);
    fx->pools.push_back(i % 2 == 0 ? make_pe_pool(s, "pe32-" + label)
                                   : make_elf_pool(s, "elf64-" + label));
  }
  infect_pe(fx->pools[0], derive_seed(seed, 201));
  infect_elf(fx->pools[1], derive_seed(seed, 202), ElfAttacks::kParseable);
  infect_pe(fx->pools[2], derive_seed(seed, 203));
  infect_elf(fx->pools[3], derive_seed(seed, 204), ElfAttacks::kParseable);
  for (const Pool& pool : fx->pools) {
    fx->pages.push_back(all_module_pages(pool));
  }
  const unsigned cpus = host_cpus();
  mc::service::CoordinatorConfig cfg;
  cfg.workers_per_shard = cpus >= 2 ? 2 : 1;
  cfg.shards = std::max<std::size_t>(1, cpus / cfg.workers_per_shard);
  fx->workers = cfg.shards * cfg.workers_per_shard;
  fx->shards = cfg.shards;
  fx->coordinator = std::make_unique<ShardCoordinator>(cfg);
  for (Pool& pool : fx->pools) {
    fx->coordinator->add_pool(pool.hypervisor(), pool.vms);
  }
  fx->sink = std::make_shared<BenchSink>(fx->pools);
  fx->hooks = std::make_shared<HookLog>();
  fx->coordinator->add_sink(fx->sink);
  fx->coordinator->set_module_hook(
      [hooks = fx->hooks](SweepId id, std::size_t, const std::string&) {
        hooks->on_module(id);
      });
  fx->coordinator->start();
  // Warm-up: a full and an event-driven sweep of every pool (sessions and
  // incremental caches), checked against ground truth.
  Rng rng(0);
  Client client(*fx, rng);
  for (std::size_t p = 0; p < kPools; ++p) {
    client.submit(p, false, fx->warmup);
    client.submit(p, true, fx->warmup);
  }
  while (client.outstanding() > 0) {
    for (const auto& [d, submitted] : client.collect()) {
      fx->warmup.record(d.ok);
    }
  }
  return fx;
}

struct FleetPhase {
  Phase phase;
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  std::vector<double> sink_us;
  std::vector<double> json_us;
  double json_bytes = 0;
  double busy_s = 0;
  mc::service::ShardCoordinator::Stats before;
  mc::service::ShardCoordinator::Stats after;
};

FleetPhase run_phase(Fixture& fx, Client& client, Rng& rng, double seconds,
                     Tally& tally, Tracer& tracer) {
  FleetPhase fp;
  const std::size_t target = 2 * fx.workers;
  fx.hooks->enabled.store(tracer.enabled());
  fp.before = fx.coordinator->stats();
  // Weather runs beside the workers, so only its CPU time is left out.
  PhaseMeter meter(fp.phase, seconds);
  auto absorb = [&](const Done& d, std::int64_t submitted) {
    tally.record(d.ok);
    meter.done(static_cast<double>(d.emit_ns - submitted) * 1e-6, d.scans);
    fp.sink_us.push_back(static_cast<double>(d.sink_end_ns - d.emit_ns) * 1e-3);
    fp.json_us.push_back(static_cast<double>(d.json_ns) * 1e-3);
    fp.json_bytes += static_cast<double>(d.json_bytes);
    const std::vector<std::int64_t> hooks = fx.hooks->take(d.id);
    if (!tracer.enabled() || hooks.empty()) {
      return;
    }
    fp.queue_wait_ms.push_back(static_cast<double>(hooks.front() - submitted) * 1e-6);
    fp.run_ms.push_back(static_cast<double>(d.emit_ns - hooks.front()) * 1e-6);
    fp.busy_s += static_cast<double>(d.emit_ns - hooks.front()) * 1e-9;
    // Spans of this sweep: submit -> sink end, split into queue wait, the
    // run (one child per module scan) and the sink.
    const int root = tracer.record({"sweep", submitted, d.sink_end_ns, kNoParent, d.seq});
    tracer.record({"service.queue_wait", submitted, hooks.front(), root, d.seq});
    const int run = tracer.record({"service.run", hooks.front(), d.emit_ns, root, d.seq});
    for (std::size_t i = 0; i < hooks.size(); ++i) {
      const std::int64_t end = i + 1 < hooks.size() ? hooks[i + 1] : d.emit_ns;
      tracer.record({"service.module_scan", hooks[i], end, run, d.seq});
    }
    tracer.record({"service.sink", d.emit_ns, d.sink_end_ns, root, d.seq});
  };
  while (meter.running()) {
    while (client.outstanding() < target) {
      meter.exclude_cpu(client.weather());
      client.submit(client.idle_pool(), pick(rng, 2) == 1, tally);
    }
    for (const auto& [d, submitted] : client.collect()) {
      absorb(d, submitted);
    }
  }
  while (client.outstanding() > 0) {
    for (const auto& [d, submitted] : client.collect()) {
      absorb(d, submitted);
    }
  }
  meter.finish();
  fp.after = fx.coordinator->stats();
  fx.hooks->enabled.store(false);
  return fp;
}

}  // namespace

RunResult run_fleet(const Options& opts) {
  RunResult out;
  double setup_s = 0;
  const std::unique_ptr<Fixture> fx =
      repeated_setup<Fixture>([&] { return build(opts.seed); }, setup_s);
  out.tally.add_failures(fx->warmup);
  const Phases phases = phases_for(opts);
  Rng rng(derive_seed(opts.seed, 13));
  Client client(*fx, rng);
  add_infection_lines(out, fx->pools);
  out.lines.push_back(
      unparseable_copy_defect()
          ? "known defect: IncrementalScanner::scan throws FormatError on a "
            "pool with an unparseable copy, where scan_pool flags the copy; "
            "this workload's infected ELF64 pools carry only parseable attacks"
          : "unparseable-copy probe: IncrementalScanner::scan flags the copy "
            "as scan_pool does");
  Tracer off(false);
  const FleetPhase untraced = run_phase(*fx, client, rng, phases.untraced_s,
                                        out.tally, off);
  out.e2e = end_to_end(untraced.phase, setup_s);
  const Summary sweep = summarize(untraced.phase.op_ms);
  out.lines.push_back("end to end (host clock, untraced):");
  out.lines.push_back(row("fleet_scans_per_s", untraced.phase.scans_per_s(),
                          "1/s",
                          std::to_string(fx->shards) + " shards x " +
                              std::to_string(fx->workers / fx->shards) +
                              " workers, " + std::to_string(2 * fx->workers) +
                              " sweeps outstanding"));
  out.lines.push_back(row("sweep_ms_p50", sweep.p50, "ms", "n=" + std::to_string(sweep.n)));
  out.lines.push_back(row("sweep_ms_p99", sweep.p99, "ms", "n=" + std::to_string(sweep.n)));
  out.lines.push_back(row("sweep_ms_" + sweep.tail.label(), sweep.tail.value, "ms",
                          "highest percentile with >=10 beyond, n=" +
                              std::to_string(sweep.n)));
  out.lines.push_back(row("cpu_ms_per_scan", untraced.phase.cpu_ms_per_scan(),
                          "ms", "process CPU, weather writes excluded"));
  if (!opts.trace) {
    return out;
  }

  client.weather_stats = WeatherStats{};
  Tracer tracer(true);
  const FleetPhase traced =
      run_phase(*fx, client, rng, phases.traced_s, out.tally, tracer);
  std::map<std::string, double> layers;
  const Summary wait = summarize(traced.queue_wait_ms);
  layers["service.queue_wait_ms_p50"] = wait.p50;
  layers["service.queue_wait_ms_p99"] = wait.p99;
  layers["service.run_ms_p50"] = summarize(traced.run_ms).p50;
  layers["service.worker_busy_frac"] =
      traced.busy_s / (static_cast<double>(fx->workers) * traced.phase.wall_s);
  layers["service.skipped_clean"] = static_cast<double>(
      traced.after.sweeps_skipped_clean - traced.before.sweeps_skipped_clean);
  layers["service.event_runs"] =
      static_cast<double>(traced.after.event_runs - traced.before.event_runs);
  layers["service.steals"] =
      static_cast<double>(traced.after.steals - traced.before.steals);
  layers["service.sink_us"] = summarize(traced.sink_us).p50;
  layers["report.json_us"] = summarize(traced.json_us).p50;
  layers["report.json_bytes"] =
      traced.json_bytes / static_cast<double>(traced.phase.op_ms.size());
  layers["vmm.write_us"] = summarize(client.weather_stats.batch_write_us).p50;
  layers["vmm.pages_dirtied"] = static_cast<double>(client.weather_stats.pages);
  const Summary off_s = summarize(untraced.phase.op_ms);
  const std::vector<Span> spans = tracer.spans();
  {
    const auto self = self_by_request(spans);
    std::vector<double> v;
    for (const auto& [request, ns] : self.at("sweep")) {
      double total = static_cast<double>(ns);
      for (const char* name : {"service.queue_wait", "service.run",
                               "service.module_scan", "service.sink"}) {
        const auto& by_request = self.at(name);
        const auto it = by_request.find(request);
        total += it == by_request.end() ? 0.0 : static_cast<double>(it->second);
      }
      v.push_back(total * 1e-6);
    }
    layers["trace.unaccounted_ms"] = off_s.p50 - summarize(v).p50;
  }
  layers["trace.spans"] = static_cast<double>(spans.size());
  add_trace_overhead(out, layers, untraced.phase, traced.phase, setup_s);
  out.layers = fill_layers(layers);
  return out;
}

}  // namespace hostbench
