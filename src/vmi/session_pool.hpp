// Persistent VMI session pool — cross-scan reuse of per-domain sessions.
//
// The seed design attached a fresh VmiSession for every module extraction:
// each one pays the attach cost, rescans for the debug block, and rebuilds
// its V2P translation cache from nothing.  In steady state (a scheduler
// looping over the same guests, an IncrementalScanner polling one guest)
// none of that work changes between scans, so the pool keeps one session
// per domain alive and hands out leases.
//
// Staleness is detected, not declared: every acquire compares the domain's
// bulk-state epoch (bumped by snapshot restore / clone-into) and CR3
// against the values captured when the session was built, and rebuilds the
// session when either moved.  Guest *content* writes leave page tables
// untouched, so they correctly do not invalidate the V2P cache — the next
// read sees the new bytes through the same translations, exactly as LibVMI
// would.  A write to a page-table frame the session walked (a remap) drops
// its translations at the next checkout (VmiSession::
// revalidate_translations); the session, debug block and all, is kept.
//
// Thread safety: acquire() returns an RAII Lease holding the per-domain
// mutex, so two threads scanning the same guest serialize on the session
// while scans of different guests proceed in parallel.  The pool itself may
// be shared freely across threads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "vmi/session.hpp"

namespace mc::vmi {

/// Deprecated view over the registry aggregates "vmi.pool.*" — see
/// telemetry/registry.hpp.  Kept so existing callers read the same fields.
// mc-lint: allow(adhoc-stats)
struct SessionPoolStats {
  /// Sessions built from scratch (first acquire, or rebuild after an
  /// epoch/CR3 staleness detection).
  std::uint64_t created = 0;
  /// Acquires satisfied by an existing warm session.
  std::uint64_t reused = 0;
  /// Sessions dropped by epoch/CR3 staleness detection.
  std::uint64_t invalidated = 0;
};

class VmiSessionPool {
 public:
  /// `metrics` backs the pool's counters and every session it builds
  /// (null = the process default registry).
  explicit VmiSessionPool(const vmm::Hypervisor& hypervisor,
                          const VmiCostModel& costs = {},
                          telemetry::MetricRegistry* metrics = nullptr);

  VmiSessionPool(const VmiSessionPool&) = delete;
  VmiSessionPool& operator=(const VmiSessionPool&) = delete;

  /// Exclusive checkout of one domain's session.  Holds the per-domain
  /// lock for its lifetime; the session pointer is valid exactly that long.
  class Lease {
   public:
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = default;

    VmiSession& session() { return *session_; }
    VmiSession* operator->() { return session_; }

   private:
    friend class VmiSessionPool;
    Lease(std::unique_lock<std::mutex> lock, VmiSession* session)
        : lock_(std::move(lock)), session_(session) {}

    std::unique_lock<std::mutex> lock_;
    VmiSession* session_;
  };

  /// Checks out `domain`'s session, rebound to charge `clock`.  Builds (and
  /// charges attach for) a fresh session on first use or when the domain's
  /// epoch/CR3 says the cached one is stale; otherwise reuses the warm
  /// session, V2P cache and all, unless a page-table frame it walked was
  /// written since (then its translations are dropped first).
  Lease acquire(vmm::DomainId domain, SimClock& clock);

  /// The hypervisor's write-watch facility.  Watch ids registered through
  /// a leased session's try_watch_range outlive the lease (they live on
  /// the hypervisor), so cross-scan consumers query/drain them here.
  vmm::WriteWatch& write_watch() const { return hypervisor_->write_watch(); }

  SessionPoolStats stats() const;

 private:
  struct Entry {
    std::mutex mutex;
    std::unique_ptr<VmiSession> session;  // guarded by `mutex`
    std::uint64_t epoch = 0;              // domain epoch at build time
    std::uint64_t cr3 = 0;                // domain CR3 at build time
  };

  const vmm::Hypervisor* hypervisor_;
  VmiCostModel costs_;
  telemetry::MetricRegistry* metrics_;  // resolved, never null

  mutable std::mutex map_mutex_;  // guards entries_ map shape
  std::map<vmm::DomainId, std::unique_ptr<Entry>> entries_;

  // Atomic registry cells ("vmi.pool.*"); bumped without map_mutex_.
  telemetry::OwnedCounter created_;
  telemetry::OwnedCounter reused_;
  telemetry::OwnedCounter invalidated_;
};

}  // namespace mc::vmi
