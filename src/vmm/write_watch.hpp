// WriteWatch — the hypervisor's EPT-style write-protect / dirty-bitmap
// subsystem.
//
// Real hypervisors expose log-dirty tracking (Xen's shadow log-dirty mode,
// EPT A/D bits) so a privileged consumer can ask "which guest frames were
// written since I last looked?" without re-reading them.  WriteWatch is
// that facility for the simulated vmm: consumers register a WatchSet over
// an ordered list of guest frames (for a module image: one frame per VA
// page, in page order, so a dirty index maps straight back to a byte
// offset), the physical-memory write path marks the bitmap, and a clean
// check is one O(1) dirty-count query instead of a per-frame version sweep.
//
// Contract:
//   * Per-watch dirty bitmaps are edge-triggered: a frame index stays
//     dirty until the owner calls rearm(), which also bumps the watch's
//     generation (consumers key derived caches on it).
//   * Bulk state replacement (snapshot restore / clone-into, which reach
//     PhysicalMemory::restore_from) conservatively marks EVERY index of
//     every watch on the domain dirty — the frame<->content association
//     the watch was registered under no longer holds.
//   * domain_write_generation() advances on every write to the domain
//     (watched or not) and on every bulk invalidate.  An unchanged
//     generation therefore proves the domain's memory is byte-identical
//     to the last observation — the strong "nothing can have changed"
//     signal the fleet service uses to skip whole sweeps.
//   * Subscribers are notified synchronously, under the watch lock, on
//     every domain write and on each clean->dirty watch transition.
//     Callbacks must be cheap and must NOT call back into WriteWatch
//     (non-reentrant); the intended pattern is flag-setting, with the
//     real work done on the consumer's own schedule.
//
// Thread safety: all public methods are safe to call concurrently; state
// is guarded by one internal mutex.  The write path takes it once per
// guest write (writes are rare next to reads — boot-time loading happens
// before monitoring starts, and steady-state writes are the attacks the
// checker exists to catch).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "vmm/domain.hpp"

namespace mc::vmm {

class WriteWatch {
 public:
  /// Opaque watch handle; kNoWatch (0) is never issued.
  using WatchId = std::uint64_t;
  static constexpr WatchId kNoWatch = 0;

  /// Notification surface.  Both callbacks run under the WriteWatch lock:
  /// keep them cheap and never call back into WriteWatch from one.
  class Subscriber {
   public:
    virtual ~Subscriber() = default;
    /// Any write (or bulk invalidate) landed on `domain`.
    virtual void on_domain_write(DomainId domain) = 0;
    /// Watch `watch` on `domain` transitioned clean -> dirty.
    virtual void on_watch_dirty(DomainId domain, WatchId watch) = 0;
  };

  WriteWatch() = default;
  WriteWatch(const WriteWatch&) = delete;
  WriteWatch& operator=(const WriteWatch&) = delete;

  // ---- consumer side -------------------------------------------------------

  /// Registers a watch over `frames` (ordered; index i of the dirty bitmap
  /// refers to frames[i]).  The watch starts clean at generation 1.
  WatchId register_watch(DomainId domain, std::vector<std::uint32_t> frames);

  /// Drops a watch.  Unknown/expired ids are ignored (a consumer may race
  /// its own teardown against domain destruction).
  void unregister(WatchId id);

  /// O(1): has any registered frame been written since the last rearm?
  bool dirty(WatchId id) const;

  /// Dirty indices (positions into the registered frame list), ascending.
  std::vector<std::uint32_t> dirty_indices(WatchId id) const;

  /// The registered frame list, in registration order (empty for
  /// unknown/expired ids).
  std::vector<std::uint32_t> watched_frames(WatchId id) const;

  /// Bumped by every rearm (i.e. every time the owner refreshed whatever
  /// it derived from the watched frames).
  std::uint64_t generation(WatchId id) const;

  /// Clears the dirty bitmap and bumps the generation.
  void rearm(WatchId id);

  /// Atomic fetch-and-clear (Xen's SHADOW_OP_CLEAN): returns the dirty
  /// indices and rearms in one step, so no write can land between "what
  /// changed?" and "consider it handled" unobserved — writes after the
  /// drain re-mark the bitmap.
  std::vector<std::uint32_t> drain(WatchId id);

  /// True while any watch on `domain` is dirty (O(1)).
  bool domain_has_dirty_watch(DomainId domain) const;

  /// Monotonic per-domain write generation — advances on every write and
  /// every bulk invalidate, watched or not.  Equal generations between two
  /// observations prove the domain's memory did not change in between.
  std::uint64_t domain_write_generation(DomainId domain) const;

  void subscribe(Subscriber* subscriber);
  void unsubscribe(Subscriber* subscriber);

  // ---- producer side (PhysicalMemory / Hypervisor plumbing) ---------------

  /// A write touched frames [first_frame, last_frame] of `domain`.
  void note_write(DomainId domain, std::uint32_t first_frame,
                  std::uint32_t last_frame);

  /// `domain`'s memory was wholesale replaced (snapshot restore /
  /// clone-into): every watch on it goes fully dirty.
  void note_bulk_invalidate(DomainId domain);

  /// Forgets everything about `domain` (domain destruction).  Its watch
  /// ids expire; queries on them return clean/empty.
  void drop_domain(DomainId domain);

 private:
  struct WatchSet {
    DomainId domain = 0;
    std::vector<std::uint32_t> frames;
    /// frame number -> indices of `frames` holding it (a frame is almost
    /// always watched by exactly one index per set, but nothing forbids
    /// aliasing).
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> frame_index;
    std::vector<bool> dirty_bits;  // one per index of `frames`
    std::size_t dirty_count = 0;
    std::uint64_t generation = 1;
  };

  struct DomainState {
    /// frame number -> watches registered over it (only watched frames
    /// appear — the per-write test is one map lookup per touched frame).
    std::map<std::uint32_t, std::vector<WatchId>> frame_watchers;
    std::uint64_t write_generation = 0;
    std::size_t dirty_watches = 0;
  };

  /// Marks index `index` of `watch` dirty; fires on_watch_dirty on the
  /// clean->dirty edge.  Caller holds mutex_.
  void mark_index_locked(WatchId id, WatchSet& watch, std::uint32_t index);
  void notify_domain_write_locked(DomainId domain);

  mutable std::mutex mutex_;
  WatchId next_id_ = 1;
  std::map<WatchId, WatchSet> watches_;
  std::map<DomainId, DomainState> domains_;
  std::vector<Subscriber*> subscribers_;
};

}  // namespace mc::vmm
