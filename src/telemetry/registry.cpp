#include "telemetry/registry.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

namespace mc::telemetry {

namespace detail {

std::size_t shard_index() {
  // One shard per thread, assigned round-robin at first use.  Thread-local,
  // so the hot path is a TLS read + fetch_add with no hashing.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return mine;
}

}  // namespace detail

std::uint64_t Counter::value() const {
  if (entry_ == nullptr) {
    return 0;
  }
  std::uint64_t total = entry_->retired.load(std::memory_order_relaxed);
  for (const auto& shard : entry_->shards) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(entry_->cells_mutex);
  for (const auto* cell : entry_->cells) {
    total += cell->load(std::memory_order_relaxed);
  }
  return total;
}

void OwnedCounter::release() {
  if (entry_ != nullptr && cell_ != nullptr) {
    {
      std::lock_guard<std::mutex> lock(entry_->cells_mutex);
      entry_->cells.erase(
          std::remove(entry_->cells.begin(), entry_->cells.end(), cell_.get()),
          entry_->cells.end());
    }
    entry_->retired.fetch_add(cell_->load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
  }
  entry_ = nullptr;
  cell_.reset();
}

HistogramSpec HistogramSpec::latency() {
  // 1us, 2us, 4us, ... 32ms: 16 exponential edges covering everything from
  // a single page map (4-25us) to a full t=15 pool scan (a few ms).
  HistogramSpec spec;
  std::uint64_t edge = 1000;
  for (int i = 0; i < 16; ++i) {
    spec.bounds.push_back(edge);
    edge *= 2;
  }
  return spec;
}

void Histogram::observe(std::uint64_t v) const {
  if (entry_ == nullptr) {
    return;
  }
  std::size_t i = 0;
  while (i < entry_->bounds.size() && v > entry_->bounds[i]) {
    ++i;
  }
  entry_->buckets[i]->value.fetch_add(1, std::memory_order_relaxed);
  entry_->count.fetch_add(1, std::memory_order_relaxed);
  entry_->sum.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  if (entry_ == nullptr || i >= entry_->buckets.size()) {
    return 0;
  }
  return entry_->buckets[i]->value.load(std::memory_order_relaxed);
}

Counter MetricRegistry::counter(std::string_view name) {
  if (!enabled_) {
    return Counter();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = counter_index_.find(name); it != counter_index_.end()) {
    return Counter(it->second);
  }
  counters_.push_back(std::make_unique<detail::CounterEntry>());
  counters_.back()->name = std::string(name);
  counter_index_.emplace(counters_.back()->name, counters_.back().get());
  return Counter(counters_.back().get());
}

OwnedCounter MetricRegistry::owned_counter(std::string_view name) {
  if (!enabled_) {
    return OwnedCounter();
  }
  detail::CounterEntry* entry = counter(name).entry_;
  auto cell = std::make_unique<std::atomic<std::uint64_t>>(0);
  {
    std::lock_guard<std::mutex> lock(entry->cells_mutex);
    entry->cells.push_back(cell.get());
  }
  return OwnedCounter(entry, std::move(cell));
}

Gauge MetricRegistry::gauge(const std::string& name) {
  if (!enabled_) {
    return Gauge();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : gauges_) {
    if (entry->name == name) {
      return Gauge(entry.get());
    }
  }
  gauges_.push_back(std::make_unique<detail::GaugeEntry>());
  gauges_.back()->name = name;
  return Gauge(gauges_.back().get());
}

Histogram MetricRegistry::histogram(const std::string& name,
                                    HistogramSpec spec) {
  if (!enabled_) {
    return Histogram();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : histograms_) {
    if (entry->name == name) {
      return Histogram(entry.get());
    }
  }
  auto entry = std::make_unique<detail::HistogramEntry>();
  entry->name = name;
  entry->bounds = std::move(spec.bounds);
  entry->buckets.reserve(entry->bounds.size() + 1);
  for (std::size_t i = 0; i <= entry->bounds.size(); ++i) {
    entry->buckets.push_back(std::make_unique<detail::PaddedAtomic>());
  }
  histograms_.push_back(std::move(entry));
  return Histogram(histograms_.back().get());
}

MetricsSnapshot MetricRegistry::snapshot() const {
  MetricsSnapshot snap;
  if (!enabled_) {
    return snap;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& entry : counters_) {
    std::uint64_t total = entry->retired.load(std::memory_order_relaxed);
    for (const auto& shard : entry->shards) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> cells_lock(entry->cells_mutex);
      for (const auto* cell : entry->cells) {
        total += cell->load(std::memory_order_relaxed);
      }
    }
    snap.counters.push_back({entry->name, total});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& entry : gauges_) {
    snap.gauges.push_back(
        {entry->name, entry->value.load(std::memory_order_relaxed)});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& entry : histograms_) {
    MetricsSnapshot::HistogramValue hv;
    hv.name = entry->name;
    hv.bounds = entry->bounds;
    hv.buckets.reserve(entry->buckets.size());
    for (const auto& bucket : entry->buckets) {
      hv.buckets.push_back(bucket->value.load(std::memory_order_relaxed));
    }
    hv.count = entry->count.load(std::memory_order_relaxed);
    hv.sum = entry->sum.load(std::memory_order_relaxed);
    snap.histograms.push_back(std::move(hv));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

MetricRegistry& MetricRegistry::process_default() {
  // Leaked intentionally: handles may live in static-duration objects, so
  // the default registry must never run its destructor.
  // mc-lint: allow(naked-new)
  static MetricRegistry* instance = new MetricRegistry();
  return *instance;
}

MetricRegistry& MetricRegistry::disabled() {
  // Leaked for the same reason as process_default().
  // mc-lint: allow(naked-new)
  static MetricRegistry* instance = new MetricRegistry(DisabledTag{});
  return *instance;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i != 0) {
      out << ',';
    }
    out << '"' << snapshot.counters[i].name
        << "\":" << snapshot.counters[i].value;
  }
  out << "},\"gauges\":{";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i != 0) {
      out << ',';
    }
    out << '"' << snapshot.gauges[i].name << "\":" << snapshot.gauges[i].value;
  }
  out << "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& hv = snapshot.histograms[i];
    if (i != 0) {
      out << ',';
    }
    out << '"' << hv.name << "\":{\"count\":" << hv.count
        << ",\"sum\":" << hv.sum << ",\"buckets\":[";
    for (std::size_t b = 0; b < hv.buckets.size(); ++b) {
      if (b != 0) {
        out << ',';
      }
      out << '[';
      if (b < hv.bounds.size()) {
        out << hv.bounds[b];
      } else {
        out << "\"+inf\"";
      }
      out << ',' << hv.buckets[b] << ']';
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

}  // namespace mc::telemetry
