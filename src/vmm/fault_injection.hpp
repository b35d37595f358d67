// Deterministic per-domain guest-fault injection.
//
// The simulator's guests never really pause, migrate or page out, so the
// fault-tolerance machinery (retry, quarantine, degraded-quorum voting)
// needs a controllable adversary.  The FaultInjector lives on the
// Hypervisor and is consulted by every VmiSession read/translation; each
// armed domain carries a FaultProfile whose decisions flow from a seeded
// mc::Xoshiro256, so a given (profile, seed, read sequence) always faults
// at exactly the same points — experiments stay bit-reproducible.
//
// Cost contract: when no domain is armed, the only work on the hot path is
// one relaxed atomic load per read/translation (the `armed()` fast gate);
// bench/bench_fault_overhead.cpp asserts the disabled path stays within 2%
// of the pre-refactor scan and that simulated costs are bit-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "util/rng.hpp"
#include "vmm/domain.hpp"

namespace mc::vmm {

/// How one domain misbehaves.  Rates are per *call* (one read_va or one
/// V2P walk), not per byte.  Counter triggers compose with rates:
/// `fail_first_reads` faults the first N read calls then recovers (the
/// retry-then-succeed scenario); `fail_after_reads` lets the first N calls
/// succeed then faults every later one (the mid-sweep death scenario);
/// `fail_read_at` faults read N alone (a fault at a chosen point inside
/// one operation, which the retry then outlives).
struct FaultProfile {
  double read_fault_rate = 0.0;         // P(read_va call faults)
  double translation_fault_rate = 0.0;  // P(V2P walk faults)
  std::uint64_t fail_first_reads = 0;   // fault reads 1..N, then recover
  std::uint64_t fail_after_reads = 0;   // 0 = off; fault every read > N
  std::uint64_t fail_read_at = 0;       // 0 = off; fault read N only
  std::uint64_t seed = 1;               // per-domain RNG stream
};

class FaultInjector {
 public:
  /// Injection bookkeeping is test-harness state, not production telemetry;
  /// it stays a plain struct by design.
  // mc-lint: allow(adhoc-stats)
  struct Stats {
    std::uint64_t reads_observed = 0;
    std::uint64_t injected_read_faults = 0;
    std::uint64_t injected_translation_faults = 0;
  };

  /// Arms (or re-arms, resetting counters and RNG) `domain` with `profile`.
  void arm(DomainId domain, const FaultProfile& profile);

  /// Removes `domain`'s profile; its reads succeed again.
  void disarm(DomainId domain);

  /// Removes every profile.
  void disarm_all();

  /// Fast gate: false once no domain has ever been armed since the last
  /// disarm_all — the only check the zero-fault hot path performs.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Rolls the dice for one read_va call on `domain`.  Counts the call and
  /// returns true when it must fault.  Thread-safe.
  bool should_fault_read(DomainId domain);

  /// Rolls the dice for one V2P translation on `domain`.  Thread-safe.
  bool should_fault_translation(DomainId domain);

  Stats stats() const;

 private:
  struct State {
    FaultProfile profile;
    Xoshiro256 rng;
    std::uint64_t reads = 0;

    explicit State(const FaultProfile& p) : profile(p), rng(p.seed) {}
  };

  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  std::unordered_map<DomainId, State> states_;
  Stats stats_;
};

}  // namespace mc::vmm
