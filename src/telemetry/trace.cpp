#include "telemetry/trace.hpp"

#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace mc::telemetry {

namespace {

// Nesting depth of the current thread.  Shared across recorders (advisory
// only — it annotates SpanRecord::depth); spans must begin and end on the
// same thread for it to mean anything, which every pipeline stage satisfies.
thread_local std::uint32_t t_depth = 0;

}  // namespace

void SpanScope::end() {
  if (recorder_ == nullptr) {
    return;
  }
  TraceRecorder* recorder = recorder_;
  recorder_ = nullptr;
  if (clock_ != nullptr) {
    record_.sim_dur = clock_->now() - record_.sim_start;
    clock_ = nullptr;
  }
  if (t_depth > 0) {
    --t_depth;
  }
  recorder->complete(std::move(record_));
}

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t TraceRecorder::wall_now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

SpanScope TraceRecorder::span(std::string name, std::string category,
                              std::uint64_t process, std::uint64_t track,
                              const SimClock* clock) {
  SpanRecord record;
  record.name = std::move(name);
  record.category = std::move(category);
  record.process = process;
  record.track = track;
  record.wall_start_ns = wall_now_ns();
  record.sim_start = clock != nullptr ? clock->now() : 0;
  record.depth = t_depth++;
  // Stage spans carry a few args each: one allocation for them all.
  record.args.reserve(4);
  return SpanScope(this, std::move(record), clock);
}

void TraceRecorder::complete(SpanRecord&& record) {
  record.wall_dur_ns = wall_now_ns() - record.wall_start_ns;
  std::lock_guard<std::mutex> lock(mutex_);
  record.seq = next_seq_++;
  done_.push_back(std::move(record));
}

std::vector<SpanRecord> TraceRecorder::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  out.swap(done_);
  // Spans arrive at a steady rate between drains: keep the room, so the
  // next batch's complete() calls do not regrow the buffer span by span.
  done_.reserve(out.size());
  return out;
}

std::vector<SpanRecord> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

std::size_t TraceRecorder::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_.size();
}

std::string chrome_trace_event(const SpanRecord& record) {
  std::ostringstream out;
  // Chrome's ts/dur are microseconds (doubles); keep ns precision with a
  // fixed three decimals.
  const auto us = [](std::uint64_t ns) {
    std::ostringstream v;
    v << ns / 1000 << '.';
    const auto frac = ns % 1000;
    v << frac / 100 << (frac / 10) % 10 << frac % 10;
    return v.str();
  };
  out << "{\"name\":\"" << json_escape(record.name) << "\",\"cat\":\""
      << json_escape(record.category) << "\",\"ph\":\"X\",\"ts\":"
      << us(record.wall_start_ns) << ",\"dur\":" << us(record.wall_dur_ns)
      << ",\"pid\":" << record.process << ",\"tid\":" << record.track
      << ",\"args\":{\"sim_start_ns\":" << record.sim_start
      << ",\"sim_dur_ns\":" << record.sim_dur << ",\"depth\":" << record.depth;
  for (const auto& arg : record.args) {
    out << ",\"" << json_escape(arg.key) << "\":";
    if (arg.is_number) {
      out << arg.value;
    } else {
      out << '"' << json_escape(arg.value) << '"';
    }
  }
  out << "}}";
  return out.str();
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanRecord>& records) {
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << chrome_trace_event(records[i]);
    if (i + 1 < records.size()) {
      out << ',';
    }
    out << '\n';
  }
  out << "]\n";
}

}  // namespace mc::telemetry
