#include "service/report.hpp"

#include <sstream>

#include "modchecker/report_json.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace mc::service {

// ---- SweepReport JSON ------------------------------------------------------

std::string to_json(const SweepReport& report) {
  std::ostringstream os;
  os << "{\"sweep\":\"" << json_escape(report.name) << "\""
     << ",\"id\":" << report.id << ",\"pool\":" << report.pool_index
     << ",\"run\":" << report.run_index << ",\"due_ns\":" << report.due
     << ",\"cancelled\":" << (report.cancelled ? "true" : "false")
     << ",\"findings\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const SweepFinding& f = report.findings[i];
    os << (i == 0 ? "" : ",") << "{\"module\":\""
       << json_escape(f.module) << "\",\"vm\":" << f.vm
       << ",\"successes\":" << f.successes << ",\"total\":" << f.total
       << "}";
  }
  os << "],\"scans\":[";
  for (std::size_t i = 0; i < report.scans.size(); ++i) {
    os << (i == 0 ? "" : ",") << core::to_json(report.scans[i]);
  }
  os << "],\"wall_ns\":" << report.wall_time << ','
     << core::cpu_ns_json(report.cpu_times);
  // Quarantine fields only on degraded runs: a healthy sweep's JSON line
  // stays byte-identical to the historical schema.
  if (!report.quarantined.empty() || report.pool_exhausted) {
    os << ",\"quarantined\":[";
    for (std::size_t i = 0; i < report.quarantined.size(); ++i) {
      os << (i == 0 ? "" : ",") << report.quarantined[i];
    }
    os << "],\"pool_exhausted\":"
       << (report.pool_exhausted ? "true" : "false");
  }
  // Likewise emitted only when set: a skipped event-driven run is the only
  // producer, and its scans/findings are the previous run's re-emission.
  if (report.skipped_clean) {
    os << ",\"skipped_clean\":true";
  }
  if (!report.telemetry_json.empty()) {
    os << ",\"telemetry\":" << report.telemetry_json;
  }
  os << "}";
  return os.str();
}

// ---- Sinks -----------------------------------------------------------------

RingSink::RingSink(std::size_t capacity) : capacity_(capacity) {
  MC_CHECK(capacity_ >= 1, "RingSink capacity must be at least 1");
}

void RingSink::on_sweep(const SweepReport& report) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.push_back(report);
  if (ring_.size() > capacity_) {
    ring_.pop_front();
  }
  ++seen_;
}

std::vector<SweepReport> RingSink::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t RingSink::total_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seen_;
}

void JsonLinesSink::on_sweep(const SweepReport& report) {
  const std::string line = to_json(report);
  std::lock_guard<std::mutex> lock(mutex_);
  *os_ << line << '\n';
  if (!os_->good()) {
    // The stream rejected the line (disk full, closed pipe, failbit left
    // by a consumer).  Count the drop and clear the state so the next
    // report gets a fresh chance — a logging sink must never wedge the
    // sweep workers.
    ++write_failures_;
    os_->clear();
  }
}

std::uint64_t JsonLinesSink::write_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_failures_;
}

void ChromeTraceSink::on_sweep(const SweepReport& /*report*/) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) {
    return;
  }
  // audit: recorder_->drain() is the telemetry SpanRecorder's lock-free
  // buffer swap, not SweepQueue::drain; nothing here waits.
  // mc-lint: allow(lock-order)
  write_events_locked();
}

void ChromeTraceSink::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) {
    return;
  }
  // audit: same as on_sweep — the telemetry drain() is a buffer swap.
  // mc-lint: allow(lock-order)
  write_events_locked();
  if (!header_written_) {
    *os_ << "[\n";  // empty run: still emit a valid (empty) array
  }
  *os_ << "\n]\n";
  os_->flush();
  finished_ = true;
}

std::uint64_t ChromeTraceSink::events_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void ChromeTraceSink::write_events_locked() {
  const std::vector<telemetry::SpanRecord> spans = recorder_->drain();
  for (const telemetry::SpanRecord& span : spans) {
    if (!header_written_) {
      *os_ << "[\n";
      header_written_ = true;
    } else {
      *os_ << ",\n";
    }
    *os_ << telemetry::chrome_trace_event(span);
    ++events_;
  }
}

}  // namespace mc::service
