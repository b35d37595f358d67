#include "service/sweep_queue.hpp"

namespace mc::service {

bool SweepQueue::push_locked(QueuedSweep&& sweep) {
  if (closed_ || cancelled_.count(sweep.id) > 0) {
    return false;
  }
  sweep.seq = next_seq_++;
  heap_.push_back(std::move(sweep));
  std::push_heap(heap_.begin(), heap_.end(), Order{});
  return true;
}

bool SweepQueue::push(QueuedSweep sweep) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!push_locked(std::move(sweep))) {
      return false;
    }
  }
  cv_.notify_one();
  return true;
}

AdmitResult SweepQueue::admit(QueuedSweep sweep, std::size_t capacity,
                              std::optional<QueuedSweep>* evicted) {
  AdmitResult result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || cancelled_.count(sweep.id) > 0) {
      return AdmitResult::kRefused;
    }
    // The seq push_locked would assign: an incoming tick orders after
    // every queued equal, so equals never churn-swap.
    sweep.seq = next_seq_;
    if (capacity == 0 || heap_.size() < capacity) {
      push_locked(std::move(sweep));
      result = AdmitResult::kAdmitted;
    } else {
      // At capacity.  The only thing allowed to yield is a recurring,
      // non-alerted tick — the victim is the sheddable run that would pop
      // last (Order's minimum: lowest priority, then latest due).
      auto victim = heap_.end();
      for (auto it = heap_.begin(); it != heap_.end(); ++it) {
        if (!it->spec.sheddable()) {
          continue;
        }
        if (victim == heap_.end() || Order{}(*it, *victim)) {
          victim = it;
        }
      }
      if (!sweep.spec.sheddable()) {
        // One-shot / alerted work is never dropped: evict a recurring
        // tick if one is queued, otherwise let the bound bend.
        if (victim != heap_.end()) {
          if (evicted != nullptr) {
            *evicted = std::move(*victim);
          }
          heap_.erase(victim);
          std::make_heap(heap_.begin(), heap_.end(), Order{});
          push_locked(std::move(sweep));
          result = AdmitResult::kAdmittedEvicted;
        } else {
          push_locked(std::move(sweep));
          result = AdmitResult::kOverflow;
        }
      } else if (victim != heap_.end() && Order{}(*victim, sweep)) {
        // The queued victim runs after the incoming tick — swap them.
        if (evicted != nullptr) {
          *evicted = std::move(*victim);
        }
        heap_.erase(victim);
        std::make_heap(heap_.begin(), heap_.end(), Order{});
        push_locked(std::move(sweep));
        result = AdmitResult::kAdmittedEvicted;
      } else {
        // The incoming tick is the cheapest thing in sight: shed it.
        return AdmitResult::kShed;
      }
    }
  }
  cv_.notify_one();
  return result;
}

std::optional<QueuedSweep> SweepQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return !heap_.empty() || closed_; });
  if (heap_.empty()) {
    return std::nullopt;  // closed and drained
  }
  // cancel() strikes pending runs and push refuses cancelled ids, so the
  // top is always live.
  std::pop_heap(heap_.begin(), heap_.end(), Order{});
  QueuedSweep top = std::move(heap_.back());
  heap_.pop_back();
  ++active_;
  return top;
}

void SweepQueue::done() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_;
  }
  cv_.notify_all();
}

void SweepQueue::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return heap_.empty() && active_ == 0; });
}

bool SweepQueue::cancel(SweepId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  cancelled_.insert(id);
  // Strike pending runs immediately so pending() stays honest.
  const std::size_t before = heap_.size();
  std::erase_if(heap_, [&](const QueuedSweep& s) { return s.id == id; });
  const bool struck = heap_.size() != before;
  if (struck) {
    std::make_heap(heap_.begin(), heap_.end(), Order{});
    cv_.notify_all();  // heap may now be empty — wake wait_idle
  }
  return struck;
}

bool SweepQueue::is_cancelled(SweepId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cancelled_.count(id) > 0;
}

void SweepQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::vector<QueuedSweep> SweepQueue::clear() {
  std::vector<QueuedSweep> dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped.swap(heap_);
  }
  cv_.notify_all();  // wake wait_idle — the backlog is gone
  return dropped;
}

std::size_t SweepQueue::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return heap_.size();
}

}  // namespace mc::service
