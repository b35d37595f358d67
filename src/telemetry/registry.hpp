// Unified metric registry — the one place every layer's counters live.
//
// Before this substrate existed, timing and counters were scattered across
// six unrelated ad-hoc structs (VmiStats, SessionPoolStats,
// CanonicalPool::Stats, DigestTable::Stats, ShardCoordinator::Stats,
// PerturbationStats), each with its own locking story.  The registry
// replaces all of that with three primitives:
//
//   Counter    — a named, monotonically increasing total.  Increments go to
//                one of kCounterShards cache-line-padded atomics selected by
//                thread id, so concurrent writers from a parallel pool scan
//                never bounce the same line.  Zero heap on the hot path: a
//                handle is one pointer, inc() is one relaxed fetch_add.
//   Gauge      — a named instantaneous level (queue depth, sweeps in
//                flight).  One atomic int64.
//   Histogram  — fixed-bucket latency distribution.  Bucket edges are fixed
//                at creation (default: exponential sim-nanosecond edges), so
//                observe() is a branchless-ish linear scan over <= 16 edges
//                plus two relaxed adds.  No allocation, ever.
//
// Per-object views.  The legacy stats() accessors survive as *views* over
// the registry: each instrumented object (a VmiSession, a DigestTable, ...)
// holds OwnedCounter cells allocated from the registry.  An OwnedCounter
// counts for exactly one object — stats() reads only its own cells — while
// the named aggregate it belongs to accumulates fleet-wide: live cells are
// summed into snapshots and a dying cell folds its final value into the
// aggregate's retired total, so registry totals stay monotonic across
// object churn.
//
// Lifetime rule: handles (Counter/Gauge/Histogram/OwnedCounter) must not
// outlive the registry they came from.  The process-wide default registry
// (process_default()) lives forever; custom registries (e.g. one per
// ShardCoordinator) must outlive every pipeline/session built on them.
//
// Disabling: MetricRegistry::disabled() returns a sentinel registry whose
// handles are permanently detached no-ops — the mechanism behind the
// telemetry overhead gate (bench_telemetry_overhead) and the
// emit_telemetry=false byte-identity guarantee.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mc::telemetry {

/// Number of cache-padded shards per counter.  Pool scans run at most a
/// handful of workers (default 4); 8 shards keeps collisions rare without
/// bloating snapshot cost.
constexpr std::size_t kCounterShards = 8;

namespace detail {

struct alignas(64) PaddedAtomic {
  std::atomic<std::uint64_t> value{0};
};

struct CounterEntry {
  std::string name;
  std::array<PaddedAtomic, kCounterShards> shards{};
  /// Sum folded in from destroyed OwnedCounter cells.
  std::atomic<std::uint64_t> retired{0};
  /// Live per-object cells (guarded by cells_mutex; the cells themselves
  /// are atomics and are read without the lock held by their owners).
  std::mutex cells_mutex;
  std::vector<const std::atomic<std::uint64_t>*> cells;
};

struct GaugeEntry {
  std::string name;
  std::atomic<std::int64_t> value{0};
};

struct HistogramEntry {
  std::string name;
  std::vector<std::uint64_t> bounds;  // ascending upper edges (inclusive)
  std::vector<std::unique_ptr<PaddedAtomic>> buckets;  // bounds.size() + 1
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
};

std::size_t shard_index();

}  // namespace detail

/// Shared monotonically-increasing total.  Copyable; a default-constructed
/// (detached) Counter is a no-op and reads as zero.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) const {
    if (entry_ != nullptr) {
      entry_->shards[detail::shard_index()].value.fetch_add(
          n, std::memory_order_relaxed);
    }
  }

  /// Aggregate total: shards + retired cells + live cells.
  std::uint64_t value() const;

 private:
  friend class MetricRegistry;
  explicit Counter(detail::CounterEntry* entry) : entry_(entry) {}
  detail::CounterEntry* entry_ = nullptr;
};

/// Per-object cell of a named counter.  Move-only; counts only what its
/// owner contributed (the basis of the legacy stats() views), while the
/// named aggregate sees live cells plus a retired total folded in when the
/// cell dies.  A default-constructed (detached) cell is a no-op.
class OwnedCounter {
 public:
  OwnedCounter() = default;
  OwnedCounter(OwnedCounter&& other) noexcept { move_from(other); }
  OwnedCounter& operator=(OwnedCounter&& other) noexcept {
    if (this != &other) {
      release();
      move_from(other);
    }
    return *this;
  }
  OwnedCounter(const OwnedCounter&) = delete;
  OwnedCounter& operator=(const OwnedCounter&) = delete;
  ~OwnedCounter() { release(); }

  void inc(std::uint64_t n = 1) const {
    if (cell_ != nullptr) {
      cell_->fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// This object's contribution only.
  std::uint64_t value() const {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class MetricRegistry;
  OwnedCounter(detail::CounterEntry* entry,
               std::unique_ptr<std::atomic<std::uint64_t>> cell)
      : entry_(entry), cell_(std::move(cell)) {}

  void move_from(OwnedCounter& other) noexcept {
    entry_ = other.entry_;
    cell_ = std::move(other.cell_);
    other.entry_ = nullptr;
  }
  void release();

  detail::CounterEntry* entry_ = nullptr;
  std::unique_ptr<std::atomic<std::uint64_t>> cell_;
};

/// Instantaneous level.  Copyable; detached gauges are no-ops.
class Gauge {
 public:
  Gauge() = default;

  void set(std::int64_t v) const {
    if (entry_ != nullptr) {
      entry_->value.store(v, std::memory_order_relaxed);
    }
  }
  void add(std::int64_t delta) const {
    if (entry_ != nullptr) {
      entry_->value.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  std::int64_t value() const {
    return entry_ != nullptr ? entry_->value.load(std::memory_order_relaxed)
                             : 0;
  }

 private:
  friend class MetricRegistry;
  explicit Gauge(detail::GaugeEntry* entry) : entry_(entry) {}
  detail::GaugeEntry* entry_ = nullptr;
};

/// Bucket edges for a Histogram.  `bounds` are ascending inclusive upper
/// edges; one implicit overflow bucket follows the last edge.
struct HistogramSpec {
  std::vector<std::uint64_t> bounds;

  /// Default sim-latency edges: 1us .. 32ms, exponential (16 edges).
  static HistogramSpec latency();
};

/// Fixed-bucket distribution.  Copyable; detached histograms are no-ops.
class Histogram {
 public:
  Histogram() = default;

  void observe(std::uint64_t v) const;

  std::uint64_t count() const {
    return entry_ != nullptr ? entry_->count.load(std::memory_order_relaxed)
                             : 0;
  }
  std::uint64_t sum() const {
    return entry_ != nullptr ? entry_->sum.load(std::memory_order_relaxed)
                             : 0;
  }
  /// Count in bucket `i` (i == bounds.size() is the overflow bucket).
  std::uint64_t bucket_count(std::size_t i) const;

 private:
  friend class MetricRegistry;
  explicit Histogram(detail::HistogramEntry* entry) : entry_(entry) {}
  detail::HistogramEntry* entry_ = nullptr;
};

/// Point-in-time copy of every metric, ordered by name.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Deterministically ordered JSON object:
///   {"counters":{...},"gauges":{...},
///    "histograms":{"name":{"count":..,"sum":..,"buckets":[[edge,n],...]}}}
std::string to_json(const MetricsSnapshot& snapshot);

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Returns the named counter, creating it on first use.  Handles to the
  /// same name share one entry.
  Counter counter(const std::string& name);

  /// Allocates a fresh per-object cell of the named counter.
  OwnedCounter owned_counter(const std::string& name);

  Gauge gauge(const std::string& name);

  /// Returns the named histogram; `spec` applies only on first creation.
  Histogram histogram(const std::string& name,
                      HistogramSpec spec = HistogramSpec::latency());

  MetricsSnapshot snapshot() const;

  bool enabled() const { return enabled_; }

  /// Process-wide default registry (never destroyed; safe for handles of
  /// any lifetime).
  static MetricRegistry& process_default();

  /// Sentinel registry whose handles are all detached no-ops.
  static MetricRegistry& disabled();

 private:
  struct DisabledTag {};
  explicit MetricRegistry(DisabledTag) : enabled_(false) {}

  bool enabled_ = true;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<detail::CounterEntry>> counters_;
  std::vector<std::unique_ptr<detail::GaugeEntry>> gauges_;
  std::vector<std::unique_ptr<detail::HistogramEntry>> histograms_;
};

/// Resolves a possibly-null registry pointer from a config to a concrete
/// registry: null means the process default.
inline MetricRegistry& resolve(MetricRegistry* registry) {
  return registry != nullptr ? *registry : MetricRegistry::process_default();
}

}  // namespace mc::telemetry
