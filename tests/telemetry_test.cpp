// Telemetry substrate tests: registry semantics (counters, owned cells,
// gauges, histogram bucket edges), span nesting and ordering under a real
// thread pool, the registry-read-during-guest-reads torn-counter regression,
// and the differential guarantee that telemetry-off report JSON is
// byte-identical to a run with no telemetry configured at all.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/environment.hpp"
#include "fallible_test_util.hpp"
#include "json_validator.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/report_json.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "util/thread_pool.hpp"
#include "vmi/session.hpp"

namespace {

using namespace mc;
using mc::test::must;

// ---- registry --------------------------------------------------------------

TEST(MetricRegistry, CounterHandlesShareOneAggregate) {
  telemetry::MetricRegistry reg;
  telemetry::Counter a = reg.counter("x.count");
  telemetry::Counter b = reg.counter("x.count");
  a.inc();
  b.inc(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
}

TEST(MetricRegistry, CountersSumAcrossThreads) {
  telemetry::MetricRegistry reg;
  telemetry::Counter c = reg.counter("mt.count");
  constexpr int kThreads = 8;
  constexpr int kIncs = 10000;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futs;
    for (int t = 0; t < kThreads; ++t) {
      futs.push_back(pool.submit([&c] {
        for (int i = 0; i < kIncs; ++i) {
          c.inc();
        }
      }));
    }
    for (auto& f : futs) {
      f.get();
    }
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST(MetricRegistry, OwnedCounterFoldsIntoAggregateOnDestroy) {
  telemetry::MetricRegistry reg;
  telemetry::Counter view = reg.counter("fold.count");
  {
    telemetry::OwnedCounter mine = reg.owned_counter("fold.count");
    mine.inc(7);
    EXPECT_EQ(mine.value(), 7u);   // this object's contribution
    EXPECT_EQ(view.value(), 7u);   // already visible in the aggregate
  }
  // The cell died; its count survives in the aggregate (monotonicity).
  EXPECT_EQ(view.value(), 7u);
  telemetry::OwnedCounter next = reg.owned_counter("fold.count");
  next.inc(3);
  EXPECT_EQ(next.value(), 3u);  // fresh cell starts at zero
  EXPECT_EQ(view.value(), 10u);
}

TEST(MetricRegistry, GaugeSetAndAdd) {
  telemetry::MetricRegistry reg;
  telemetry::Gauge g = reg.gauge("depth");
  g.set(5);
  g.add(-2);
  EXPECT_EQ(g.value(), 3);
}

TEST(MetricRegistry, HistogramBucketEdgesAreInclusiveUpperBounds) {
  telemetry::MetricRegistry reg;
  telemetry::Histogram h =
      reg.histogram("lat", telemetry::HistogramSpec{{10, 100, 1000}});
  h.observe(10);    // == edge -> bucket 0
  h.observe(11);    // just past -> bucket 1
  h.observe(100);   // == edge -> bucket 1
  h.observe(1000);  // == edge -> bucket 2
  h.observe(1001);  // past the last edge -> overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10u + 11 + 100 + 1000 + 1001);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +inf
}

TEST(MetricRegistry, DisabledRegistryHandlesAreNoOps) {
  telemetry::MetricRegistry& off = telemetry::MetricRegistry::disabled();
  EXPECT_FALSE(off.enabled());
  telemetry::Counter c = off.counter("ghost.count");
  telemetry::Gauge g = off.gauge("ghost.gauge");
  telemetry::Histogram h = off.histogram("ghost.hist");
  telemetry::OwnedCounter o = off.owned_counter("ghost.owned");
  c.inc(100);
  g.set(100);
  h.observe(100);
  o.inc(100);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(o.value(), 0u);
  EXPECT_TRUE(off.snapshot().empty());
}

TEST(MetricRegistry, SnapshotIsSortedAndSerializes) {
  telemetry::MetricRegistry reg;
  reg.counter("b.count").inc(2);
  reg.counter("a.count").inc(1);
  reg.gauge("g").set(-4);
  reg.histogram("h", telemetry::HistogramSpec{{10}}).observe(3);
  const telemetry::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.count");
  EXPECT_EQ(snap.counters[1].name, "b.count");
  const std::string json = telemetry::to_json(snap);
  EXPECT_NE(json.find("\"a.count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"g\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[10,1],[\"+inf\",0]]"),
            std::string::npos);
}

TEST(MetricRegistry, ResolveMapsNullToProcessDefault) {
  EXPECT_EQ(&telemetry::resolve(nullptr),
            &telemetry::MetricRegistry::process_default());
  telemetry::MetricRegistry mine;
  EXPECT_EQ(&telemetry::resolve(&mine), &mine);
}

// ---- tracing ---------------------------------------------------------------

TEST(TraceRecorder, NestedSpansRecordDepthAndOrdering) {
  telemetry::TraceRecorder rec;
  {
    telemetry::SpanScope outer = rec.span("outer", "test");
    {
      telemetry::SpanScope inner = rec.span("inner", "test", 0, 0);
      inner.arg("k", std::string("v"));
    }
  }
  const auto spans = rec.drain();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: inner closes first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_LT(spans[0].seq, spans[1].seq);
  EXPECT_TRUE(rec.drain().empty());  // drain() cleared them
}

TEST(TraceRecorder, SimClockStampsSimDuration) {
  telemetry::TraceRecorder rec;
  SimClock clock;
  clock.advance_raw(100);
  {
    telemetry::SpanScope s = rec.span("work", "test", 0, 0, &clock);
    clock.advance_raw(250);
  }
  const auto spans = rec.drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].sim_start, 100u);
  EXPECT_EQ(spans[0].sim_dur, 250u);
}

TEST(TraceRecorder, NullRecorderHelperIsFreeOfEffects) {
  telemetry::SpanScope s = telemetry::span(nullptr, "ghost", "test");
  EXPECT_FALSE(static_cast<bool>(s));
  s.arg("k", std::uint64_t{1});  // must not crash
  s.end();
}

TEST(TraceRecorder, SpansFromManyThreadsAllComplete) {
  telemetry::TraceRecorder rec;
  constexpr int kThreads = 6;
  constexpr int kSpans = 200;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futs;
    for (int t = 0; t < kThreads; ++t) {
      futs.push_back(pool.submit([&rec, t] {
        for (int i = 0; i < kSpans; ++i) {
          telemetry::SpanScope outer =
              rec.span("outer", "mt", 0, static_cast<std::uint64_t>(t));
          telemetry::SpanScope inner =
              rec.span("inner", "mt", 0, static_cast<std::uint64_t>(t));
        }
      }));
    }
    for (auto& f : futs) {
      f.get();
    }
  }
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads) * kSpans * 2);
  // seq values are unique and dense.
  std::vector<std::uint64_t> seqs;
  seqs.reserve(spans.size());
  for (const auto& s : spans) {
    seqs.push_back(s.seq);
    EXPECT_LE(s.depth, 1u);  // per-thread nesting never exceeded two levels
  }
  std::sort(seqs.begin(), seqs.end());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], i);
  }
}

TEST(TraceRecorder, ChromeTraceIsAValidJsonArray) {
  telemetry::TraceRecorder rec;
  {
    telemetry::SpanScope s = rec.span("scan", "pipeline", 1, 2);
    s.arg("module", std::string("hal.dll"));
    s.arg("pairs", std::uint64_t{14});
  }
  std::ostringstream os;
  telemetry::write_chrome_trace(os, rec.drain());
  const std::string trace = os.str();
  EXPECT_EQ(trace.front(), '[');
  EXPECT_NE(trace.find("\"name\":\"scan\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"pipeline\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(trace.find("\"module\":\"hal.dll\""), std::string::npos);
  EXPECT_NE(trace.find("\"pairs\":14"), std::string::npos);
  EXPECT_EQ(trace.find('\''), std::string::npos);
  EXPECT_TRUE(testutil::is_valid_json(trace)) << trace;
}

TEST(TraceRecorder, ChromeTraceEscapesControlBytesInArgs) {
  telemetry::TraceRecorder rec;
  {
    telemetry::SpanScope s = rec.span("scan", "pipeline", 1, 2);
    s.arg("module", std::string("hal\t.dll\r\x01"));
  }
  std::ostringstream os;
  telemetry::write_chrome_trace(os, rec.drain());
  const std::string trace = os.str();
  EXPECT_TRUE(testutil::is_valid_json(trace)) << trace;
  EXPECT_NE(trace.find("\"module\":\"hal\\t.dll\\r\\u0001\""),
            std::string::npos);
}

// ---- VmiSession torn-snapshot regression -----------------------------------

// Reads a session's registry counter from one thread while another
// performs guest reads.  With the historical plain-struct counters this was
// a data race (torn 64-bit reads) that TSan flags; the registry cells make
// it clean.
TEST(VmiSessionStats, SnapshotDuringConcurrentReadsIsRaceFree) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 2;
  cloud::CloudEnvironment env(cfg);
  SimClock clock;
  telemetry::MetricRegistry metrics;
  vmi::VmiSession session(env.hypervisor(), env.guests()[0], clock, {},
                          &metrics);
  const telemetry::Counter read_calls = metrics.counter("vmi.read_calls");
  // A guaranteed-mapped kernel VA: the loader list head itself.
  const std::uint32_t list_va =
      must(session.try_symbol_to_va("PsLoadedModuleList"));

  std::atomic<bool> stop{false};
  ThreadPool pool(2);
  auto reader = pool.submit([&] {
    Bytes buf(8);  // LIST_ENTRY {Flink, Blink}
    for (int i = 0; i < 300; ++i) {
      EXPECT_FALSE(session.try_read_va(list_va, MutableByteView(buf)));
    }
    stop.store(true);
  });
  auto observer = pool.submit([&] {
    std::uint64_t last = 0;
    // Bounded so a reader failure can never wedge the pool join.
    for (long i = 0; i < 200000000L && !stop.load(); ++i) {
      const std::uint64_t now = read_calls.value();
      EXPECT_GE(now, last);  // monotone under concurrency
      last = now;
    }
    return last;
  });
  reader.get();
  observer.get();
  EXPECT_GE(read_calls.value(), 300u);
}

// ---- differential byte-identity --------------------------------------------

core::PoolScanReport scan_with(const cloud::CloudEnvironment& env,
                               core::ModCheckerConfig cfg) {
  core::ModChecker checker(env.hypervisor(), std::move(cfg));
  return checker.scan_pool("hal.dll", env.guests());
}

TEST(TelemetryDifferential, ReportJsonUnchangedUnlessOptedIn) {
  cloud::CloudConfig cloud_cfg;
  cloud_cfg.guest_count = 4;
  cloud::CloudEnvironment env(cloud_cfg);

  // Baseline: no telemetry configured anywhere.
  const std::string plain = core::to_json(scan_with(env, {}));

  // Same scan with a private registry + tracer wired in but emit off: the
  // report must stay byte-identical — observers must not perturb output.
  telemetry::MetricRegistry reg;
  telemetry::TraceRecorder rec;
  core::ModCheckerConfig wired;
  wired.metrics = &reg;
  wired.tracer = &rec;
  const std::string observed = core::to_json(scan_with(env, wired));
  EXPECT_EQ(plain, observed);
  EXPECT_GT(rec.completed(), 0u);  // the tracer really was active

  // Explicitly disabled registry: still byte-identical.
  core::ModCheckerConfig off;
  off.metrics = &telemetry::MetricRegistry::disabled();
  EXPECT_EQ(plain, core::to_json(scan_with(env, off)));

  // Opting in appends exactly one new field.
  telemetry::MetricRegistry reg2;
  core::ModCheckerConfig emit;
  emit.metrics = &reg2;
  emit.emit_telemetry = true;
  const std::string with = core::to_json(scan_with(env, emit));
  EXPECT_NE(with.find(",\"telemetry\":{"), std::string::npos);
  EXPECT_NE(with.find("\"pipeline.pool_scans\""), std::string::npos);
  // The new field is appended immediately before the report's closing '}'.
  EXPECT_EQ(with.find(",\"telemetry\":{"), plain.size() - 1);
}

TEST(TelemetryDifferential, PipelineStagesLandInOneRegistry) {
  cloud::CloudConfig cloud_cfg;
  cloud_cfg.guest_count = 3;
  cloud::CloudEnvironment env(cloud_cfg);
  telemetry::MetricRegistry reg;
  telemetry::TraceRecorder rec;
  core::ModCheckerConfig cfg;
  cfg.metrics = &reg;
  cfg.tracer = &rec;
  core::ModChecker checker(env.hypervisor(), std::move(cfg));
  const core::PoolScanReport report =
      checker.scan_pool("hal.dll", env.guests());
  EXPECT_FALSE(report.verdicts.empty());
  // A fresh scan borrows every image from guest memory: no owned copy.
  EXPECT_GT(reg.counter("vmi.view_bytes").value(), 0u);
  EXPECT_EQ(reg.counter("pipeline.acquire.materializations").value(), 0u);
  // The pool scan's spans, before the single-subject check adds its own.
  const std::vector<telemetry::SpanRecord> scan_spans = rec.drain();
  // A single-subject check exercises the digest-memo path too.
  const core::CheckReport check =
      checker.check_module(env.guests()[0], "hal.dll");
  const std::vector<telemetry::SpanRecord> check_spans = rec.drain();
  // One compare-time observation per driver call: the scan's and the
  // check's.
  EXPECT_EQ(reg.histogram("pipeline.compare.sim_ns").count(), 2u);

  const std::string json = telemetry::to_json(reg.snapshot());
  // Every layer routed through the one registry: vmi, pool, canonical,
  // digest memo, pipeline counters and stage histograms.
  for (const char* name :
       {"vmi.read_calls", "vmi.pool.created", "canonical.eligible",
        "canonical.hashes", "digest_memo.hits", "pipeline.checks", "pipeline.pool_scans",
        "pipeline.acquire.attempts", "pipeline.acquire.sim_ns",
        "pipeline.compare.sim_ns", "pipeline.compare.fallback_items",
        "pipeline.compare.fallback_hashes", "canonical.delta_items",
        "canonical.delta_refusals.over_cap", "canonical.delta_refusals.no_map",
        "canonical.delta_refusals.unsettled",
        "canonical.delta_refusals.same_base",
        "canonical.delta_refusals.unsynced",
        "incremental.unchanged_refreshes", "incremental.loader_walks",
        "incremental.loader_reuses"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }

  // One span per stage per domain for the staged part: acquire + parse per
  // VM, plus pool-level normalize/compare/vote under one pool_scan span.
  std::size_t acquire = 0;
  std::size_t parse = 0;
  std::size_t pool_scan = 0;
  for (const auto& s : scan_spans) {
    acquire += s.name == "acquire" ? 1u : 0u;
    parse += s.name == "parse" ? 1u : 0u;
    pool_scan += s.name == "pool_scan" ? 1u : 0u;
  }
  EXPECT_EQ(acquire, env.guests().size());
  EXPECT_EQ(parse, env.guests().size());
  EXPECT_EQ(pool_scan, 1u);

  // The check's tree: a root "check" span over acquire + parse per VM, one
  // compare per peer and one vote.
  std::map<std::string, std::size_t> names;
  for (const auto& s : check_spans) {
    ++names[s.name];
  }
  const std::map<std::string, std::size_t> want = {
      {"check", 1},
      {"acquire", env.guests().size()},
      {"parse", env.guests().size()},
      {"compare", env.guests().size() - 1},
      {"vote", 1}};
  EXPECT_EQ(names, want);
  const telemetry::SpanRecord& root = check_spans.back();
  ASSERT_EQ(root.name, "check");
  EXPECT_EQ(root.depth, 0u);
  std::map<std::string, std::string> args;
  for (const auto& a : root.args) {
    args[a.key] = a.value;
  }
  EXPECT_EQ(args["module"], "hal.dll");
  EXPECT_EQ(args["peers"], std::to_string(env.guests().size() - 1));
  EXPECT_EQ(args["sim_wall_ns"], std::to_string(check.wall_time));
}

}  // namespace
