// Self-test of the harness's own arithmetic on synthetic inputs: the
// percentile rule, span self time, and failed_frac accounting.
#include <cmath>
#include <cstdio>

#include "workloads.hpp"

namespace hostbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

void percentile_rule() {
  // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
  Tail t = highest_tail(ramp(1000));
  expect(t.q == 0.99 && t.value == 990 && t.beyond == 10 && t.n == 1000,
         "n=1000 picks p99 with 10 beyond");
  expect(t.label() == "p99", "p99 label");
  // One sample fewer and p99 has only 9 beyond: drop to p95.
  t = highest_tail(ramp(999));
  expect(t.q == 0.95 && t.value == 950 && t.beyond == 49, "n=999 picks p95");
  t = highest_tail(ramp(10000));
  expect(t.q == 0.999 && t.value == 9990 && t.label() == "p99.9",
         "n=10000 picks p99.9");
  t = highest_tail(ramp(100));
  expect(t.q == 0.9 && t.value == 90 && t.beyond == 10, "n=100 picks p90");
  t = highest_tail(ramp(10));
  expect(t.q == 0.5 && t.value == 5 && t.n == 10,
         "too few samples fall back to p50");
  expect(highest_tail({}).n == 0, "empty sample");
  const Summary s = summarize({5, 1, 4, 2, 3});
  expect(s.n == 5 && s.p50 == 3 && s.p99 == 5 && s.mean == 3,
         "summary of an unsorted sample");
  expect(samples_beyond(1000, 0.99) == 10 && samples_beyond(0, 0.5) == 0,
         "samples beyond");
}

void span_self_time() {
  std::vector<Span> spans = {
      {"root", 0, 100, kNoParent, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},   // overlaps a: the union counts once
      {"c", 90, 120, 0, 1},  // runs past its parent: clipped to 100
      {"d", 15, 25, 1, 1},   // grandchild: only a's self time shrinks
      {"root", 200, 260, kNoParent, 2},
      {"a", 210, 220, 5, 2},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  expect(self[0] == 50, "root self = 100 - |[10,50] u [90,100]|");
  expect(self[1] == 10, "a self = 20 - 10 (grandchild)");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 10, "leaf self times");
  expect(self[5] == 50 && self[6] == 10, "second request");
  const auto by = self_by_request(spans);
  expect(by.at("root").at(1) == 50 && by.at("root").at(2) == 50,
         "root per request");
  expect(by.at("a").at(1) == 10 && by.at("a").at(2) == 10, "a per request");
  // When children nest without overlap, self times partition the root.
  expect(self[5] + self[6] == 260 - 200, "self times partition request 2");

  Tracer tracer(true);
  {
    SpanScope outer(tracer, "outer", kNoParent, 7);
    SpanScope inner(tracer, "inner", outer.id(), 7);
  }
  const std::vector<Span> rec = tracer.spans();
  expect(rec.size() == 2 && rec[1].parent == 0 && rec[0].request == 7 &&
             rec[0].start_ns <= rec[1].start_ns && rec[1].end_ns <= rec[0].end_ns,
         "recorded spans nest");
  Tracer off(false);
  expect(off.begin("x", kNoParent, 1) == kNoParent && off.spans().empty(),
         "disabled tracer records nothing");
}

void failed_accounting() {
  Tally t;
  expect(t.failed_frac() == 0.0, "empty tally");
  for (int i = 0; i < 7; ++i) {
    t.record(true);
  }
  t.record(false);
  t.record(false);
  t.record_dropped();
  expect(t.attempted == 10 && t.failed == 3, "tally counts");
  expect(std::fabs(t.failed_frac() - 0.3) < 1e-12, "failed_frac = 3/10");
}

}  // namespace

int run_selftest() {
  failures = 0;
  percentile_rule();
  span_self_time();
  failed_accounting();
  return failures;
}

}  // namespace hostbench
