// Fixed-size thread pool (CP.4: think in terms of tasks, not threads).
//
// Used by the parallel pool-scan mode of ModChecker — the extension the
// paper proposes in §V-C.1 ("the modular design of ModChecker can support
// parallel access of virtual machines' memory") — and to host the fleet
// coordinator's worker loops.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace mc {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers (>= 1) sharing one task queue.
  explicit ThreadPool(std::size_t threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a callable and returns a future for its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool::submit after shutdown");
      }
      tasks_.emplace([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mc
