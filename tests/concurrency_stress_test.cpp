// Multi-threaded stress tests — the suite a ThreadSanitizer build must
// keep clean (`ctest -L tsan`).
//
// The paper's §V-C.1 extension runs per-VM extraction in parallel; in a
// production deployment many checker instances additionally share one
// hypervisor's read-only introspection surface.  These tests drive that
// sharing hard: N subject VMs checked concurrently through ThreadPool,
// concurrent ScanSchedulers over the same pool, and ModChecker's internal
// parallel mode racing against itself from several threads.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/scheduler.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mc;

constexpr std::size_t kGuests = 6;
constexpr std::size_t kWorkers = 4;

std::unique_ptr<cloud::CloudEnvironment> make_env() {
  cloud::CloudConfig config;
  config.guest_count = kGuests;
  return std::make_unique<cloud::CloudEnvironment>(config);
}

TEST(ConcurrencyStress, ThreadPoolManyProducersManyTasks) {
  ThreadPool pool(kWorkers);
  std::atomic<int> sum{0};
  std::vector<std::thread> producers;
  std::vector<std::future<int>> futures[3];  // one slot per producer
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 64; ++i) {
        futures[p].push_back(pool.submit([&sum, i] {
          sum.fetch_add(1, std::memory_order_relaxed);
          return i;
        }));
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  int total = 0;
  for (auto& per_producer : futures) {
    for (auto& f : per_producer) {
      total += f.get();
    }
  }
  EXPECT_EQ(total, 3 * (63 * 64 / 2));
  EXPECT_EQ(sum.load(), 3 * 64);
}

// Every guest takes the subject role at once, each on its own checker but
// all reading the same hypervisor.  All verdicts must come back clean.
TEST(ConcurrencyStress, NVmsCheckedConcurrentlyThroughThreadPool) {
  auto env = make_env();
  const vmm::Hypervisor& hv = env->hypervisor();
  ThreadPool pool(kWorkers);

  std::vector<std::future<core::CheckReport>> futures;
  futures.reserve(env->guests().size());
  for (const vmm::DomainId subject : env->guests()) {
    futures.push_back(pool.submit([&hv, subject] {
      core::ModChecker checker(hv);
      return checker.check_module(subject, "hal.dll");
    }));
  }
  for (auto& f : futures) {
    const auto report = f.get();
    EXPECT_TRUE(report.subject_clean);
    EXPECT_EQ(report.total_comparisons, kGuests - 1);
  }
}

// An infected guest must be flagged even when every check runs in
// parallel with checks of the clean guests.
TEST(ConcurrencyStress, InfectedVmFlaggedUnderConcurrentChecks) {
  auto env = make_env();
  attacks::InlineHookAttack attack;
  const vmm::DomainId infected = env->guests()[2];
  attack.apply(*env, infected, "hal.dll");

  const vmm::Hypervisor& hv = env->hypervisor();
  ThreadPool pool(kWorkers);
  std::vector<vmm::DomainId> subjects(env->guests());
  std::vector<std::future<core::CheckReport>> futures;
  futures.reserve(subjects.size());
  for (const vmm::DomainId subject : subjects) {
    futures.push_back(pool.submit([&hv, subject] {
      core::ModChecker checker(hv);
      return checker.check_module(subject, "hal.dll");
    }));
  }
  for (std::size_t i = 0; i < subjects.size(); ++i) {
    const auto report = futures[i].get();
    EXPECT_EQ(report.subject_clean, subjects[i] != infected)
        << "subject Dom" << subjects[i];
  }
}

// ModChecker's own parallel mode (internal pool) exercised from multiple
// threads simultaneously — pools within pools.
TEST(ConcurrencyStress, ParallelModeCheckersRaceEachOther) {
  auto env = make_env();
  const vmm::Hypervisor& hv = env->hypervisor();

  core::ModCheckerConfig config;
  config.worker_threads = 3;

  std::vector<std::thread> threads;
  std::atomic<int> clean{0};
  for (std::size_t t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      core::ModChecker checker(hv, config);
      const auto subject = env->guests()[t % kGuests];
      const auto report = checker.check_module(subject, "hal.dll");
      if (report.subject_clean) {
        clean.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(clean.load(), static_cast<int>(kWorkers));
}

// Concurrent continuous-monitoring schedulers over one shared pool: each
// thread owns its scheduler (they are single-threaded objects) but all of
// them introspect the same guests at once.
TEST(ConcurrencyStress, SchedulersScanSharedPoolConcurrently) {
  auto env = make_env();
  const vmm::Hypervisor& hv = env->hypervisor();

  ThreadPool pool(kWorkers);
  std::vector<std::future<core::ScheduleReport>> futures;
  for (std::size_t t = 0; t < kWorkers; ++t) {
    futures.push_back(pool.submit([&hv, &env] {
      core::ScanScheduler scheduler(hv, env->guests());
      scheduler.add_policy({"hal.dll", sim_ms(1000), 0});
      scheduler.add_policy({"http.sys", sim_ms(2500), sim_ms(100)});
      return scheduler.run_until(sim_ms(5000));
    }));
  }
  for (auto& f : futures) {
    const auto report = f.get();
    EXPECT_GT(report.scans.size(), 0u);
    EXPECT_TRUE(report.alerts.empty());
  }
}

}  // namespace
