#include "vmm/write_watch.hpp"

#include <algorithm>

#include "telemetry/registry.hpp"

namespace mc::vmm {

namespace {

// Like physical memory, the watch layer sits below any pipeline's choice
// of registry (one Hypervisor serves every pipeline over its guests), so
// its totals land on the process-default registry.
struct WatchCounters {
  telemetry::Counter registered;
  telemetry::Counter unregistered;
  telemetry::Counter dirty_frames;
  telemetry::Counter notifications;
  telemetry::Counter bulk_invalidations;
  telemetry::Counter rearms;
};

const WatchCounters& watch_counters() {
  static const WatchCounters counters = [] {
    telemetry::MetricRegistry& r = telemetry::MetricRegistry::process_default();
    return WatchCounters{r.counter("writewatch.registered"),
                         r.counter("writewatch.unregistered"),
                         r.counter("writewatch.dirty_frames"),
                         r.counter("writewatch.notifications"),
                         r.counter("writewatch.bulk_invalidations"),
                         r.counter("writewatch.rearms")};
  }();
  return counters;
}

}  // namespace

WriteWatch::WatchId WriteWatch::register_watch(
    DomainId domain, std::vector<std::uint32_t> frames) {
  std::lock_guard<std::mutex> lock(mutex_);
  const WatchId id = next_id_++;
  WatchSet& watch = watches_[id];
  watch.domain = domain;
  watch.frames = std::move(frames);
  watch.dirty_bits.assign(watch.frames.size(), false);
  DomainState& state = domains_[domain];
  for (std::uint32_t i = 0; i < watch.frames.size(); ++i) {
    watch.frame_index[watch.frames[i]].push_back(i);
    std::vector<WatchId>& watchers = state.frame_watchers[watch.frames[i]];
    if (std::find(watchers.begin(), watchers.end(), id) == watchers.end()) {
      watchers.push_back(id);
    }
  }
  watch_counters().registered.inc();
  return id;
}

void WriteWatch::unregister(WatchId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = watches_.find(id);
  if (it == watches_.end()) {
    return;
  }
  WatchSet& watch = it->second;
  const auto dom = domains_.find(watch.domain);
  if (dom != domains_.end()) {
    for (const auto& [frame, indices] : watch.frame_index) {
      const auto fw = dom->second.frame_watchers.find(frame);
      if (fw == dom->second.frame_watchers.end()) {
        continue;
      }
      std::erase(fw->second, id);
      if (fw->second.empty()) {
        dom->second.frame_watchers.erase(fw);
      }
    }
  }
  watches_.erase(it);
  watch_counters().unregistered.inc();
}

bool WriteWatch::dirty(WatchId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = watches_.find(id);
  return it != watches_.end() && it->second.dirty_count > 0;
}

std::vector<std::uint32_t> WriteWatch::watched_frames(WatchId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = watches_.find(id);
  return it == watches_.end() ? std::vector<std::uint32_t>{}
                              : it->second.frames;
}

std::vector<std::uint32_t> WriteWatch::drain(WatchId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint32_t> out;
  const auto it = watches_.find(id);
  if (it == watches_.end()) {
    return out;
  }
  WatchSet& watch = it->second;
  out.reserve(watch.dirty_count);
  for (std::uint32_t i = 0; i < watch.dirty_bits.size(); ++i) {
    if (watch.dirty_bits[i]) {
      out.push_back(i);
    }
  }
  if (watch.dirty_count > 0) {
    watch.dirty_bits.assign(watch.frames.size(), false);
    watch.dirty_count = 0;
  }
  watch_counters().rearms.inc();
  return out;
}

std::uint64_t WriteWatch::domain_write_generation(DomainId domain) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = domains_.find(domain);
  return it == domains_.end() ? 0 : it->second.write_generation;
}

void WriteWatch::note_table_frame(DomainId domain, std::uint32_t frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  domains_[domain].table_frames.insert(frame);
}

std::uint64_t WriteWatch::table_generation(DomainId domain) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = domains_.find(domain);
  return it == domains_.end() ? 0 : it->second.table_generation;
}

void WriteWatch::subscribe(Subscriber* subscriber) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::find(subscribers_.begin(), subscribers_.end(), subscriber) ==
      subscribers_.end()) {
    subscribers_.push_back(subscriber);
  }
}

void WriteWatch::unsubscribe(Subscriber* subscriber) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase(subscribers_, subscriber);
}

void WriteWatch::mark_index_locked(WatchId id, WatchSet& watch,
                                   std::uint32_t index) {
  if (watch.dirty_bits[index]) {
    return;
  }
  watch.dirty_bits[index] = true;
  ++watch.dirty_count;
  watch_counters().dirty_frames.inc();
  if (watch.dirty_count == 1) {
    watch_counters().notifications.inc();
    for (Subscriber* s : subscribers_) {
      s->on_watch_dirty(watch.domain, id);
    }
  }
}

void WriteWatch::notify_domain_write_locked(DomainId domain) {
  for (Subscriber* s : subscribers_) {
    s->on_domain_write(domain);
  }
}

void WriteWatch::note_write(DomainId domain, std::uint32_t first_frame,
                            std::uint32_t last_frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  DomainState& state = domains_[domain];
  ++state.write_generation;
  const auto table = state.table_frames.lower_bound(first_frame);
  if (table != state.table_frames.end() && *table <= last_frame) {
    ++state.table_generation;
  }
  // Only consult frame_watchers over the touched range: lower_bound makes
  // the common unwatched write O(log watched_frames).
  for (auto it = state.frame_watchers.lower_bound(first_frame);
       it != state.frame_watchers.end() && it->first <= last_frame; ++it) {
    for (const WatchId id : it->second) {
      WatchSet& watch = watches_.at(id);
      for (const std::uint32_t index : watch.frame_index.at(it->first)) {
        mark_index_locked(id, watch, index);
      }
    }
  }
  notify_domain_write_locked(domain);
}

void WriteWatch::note_cr3_switch(DomainId domain) {
  std::lock_guard<std::mutex> lock(mutex_);
  DomainState& state = domains_[domain];
  ++state.write_generation;
  ++state.table_generation;
  notify_domain_write_locked(domain);
}

void WriteWatch::note_bulk_invalidate(DomainId domain) {
  std::lock_guard<std::mutex> lock(mutex_);
  DomainState& state = domains_[domain];
  ++state.write_generation;
  ++state.table_generation;
  watch_counters().bulk_invalidations.inc();
  for (auto& [id, watch] : watches_) {
    if (watch.domain != domain) {
      continue;
    }
    for (std::uint32_t i = 0; i < watch.frames.size(); ++i) {
      mark_index_locked(id, watch, i);
    }
  }
  notify_domain_write_locked(domain);
}

void WriteWatch::drop_domain(DomainId domain) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = watches_.begin(); it != watches_.end();) {
    it = it->second.domain == domain ? watches_.erase(it) : std::next(it);
  }
  domains_.erase(domain);
}

}  // namespace mc::vmm
