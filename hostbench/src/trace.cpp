#include "trace.hpp"

#include <algorithm>
#include <utility>

namespace hostbench {

int Tracer::begin(const std::string& name, int parent, std::uint64_t request) {
  if (!enabled_) {
    return kNoParent;
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  if (id == kNoParent) {
    return;
  }
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

int Tracer::record(Span span) {
  if (!enabled_) {
    return kNoParent;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [a_raw, b_raw] : kids) {
      const std::int64_t a = std::max(a_raw, lo);
      const std::int64_t b = std::min(b_raw, hi);
      if (b <= a) {
        continue;
      }
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) {
        covered += run_hi - run_lo;
      }
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) {
      covered += run_hi - run_lo;
    }
    self[i] = std::max<std::int64_t>(0, hi - lo - covered);
  }
  return self;
}

std::map<std::string, std::map<std::uint64_t, std::int64_t>> self_by_request(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::map<std::uint64_t, std::int64_t>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name][spans[i].request] += self[i];
  }
  return out;
}

}  // namespace hostbench
