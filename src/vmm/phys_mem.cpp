#include "vmm/phys_mem.hpp"

#include <algorithm>

#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "vmm/write_watch.hpp"

namespace mc::vmm {

namespace {

// Physical memory sits below any pipeline's choice of registry (a single
// PhysicalMemory is shared by every scan of its guest), so its page-op
// totals land on the process-default registry.  Handles are copyable
// atomic-shard references; the statics are initialized once, thread-safely.
struct PhysCounters {
  telemetry::Counter reads;
  telemetry::Counter writes;
  telemetry::Counter bytes_read;
  telemetry::Counter bytes_written;
  telemetry::Counter frames_materialized;
  telemetry::Counter frame_views;
};

const PhysCounters& phys_counters() {
  static const PhysCounters counters = [] {
    telemetry::MetricRegistry& r = telemetry::MetricRegistry::process_default();
    return PhysCounters{r.counter("vmm.phys.reads"),
                        r.counter("vmm.phys.writes"),
                        r.counter("vmm.phys.bytes_read"),
                        r.counter("vmm.phys.bytes_written"),
                        r.counter("vmm.phys.frames_materialized"),
                        r.counter("vmm.phys.frame_views")};
  }();
  return counters;
}

}  // namespace

PhysicalMemory::PhysicalMemory(std::uint64_t size_bytes)
    : size_((size_bytes + kFrameSize - 1) & ~std::uint64_t{kFrameSize - 1}),
      // Frame 0 is reserved (real systems keep low memory for firmware
      // structures; it also keeps CR3 == 0 meaning "no address space").
      next_alloc_frame_(1) {
  MC_CHECK(size_ > kFrameSize, "physical memory must exceed one frame");
}

std::uint32_t PhysicalMemory::alloc_frame() { return alloc_frames(1); }

std::uint32_t PhysicalMemory::alloc_frames(std::uint32_t count) {
  MC_CHECK(count > 0, "alloc_frames(0)");
  if (std::uint64_t{next_alloc_frame_} + count > frame_count()) {
    throw MemoryError("guest physical memory exhausted");
  }
  const std::uint32_t first = next_alloc_frame_;
  next_alloc_frame_ += count;
  return first;
}

const PhysicalMemory::Frame* PhysicalMemory::frame_if_present(
    std::uint32_t frame_no) const {
  const auto it = frames_.find(frame_no);
  return it == frames_.end() ? nullptr : it->second.get();
}

PhysicalMemory::Frame& PhysicalMemory::frame_for_write(std::uint32_t frame_no) {
  auto& slot = frames_[frame_no];
  if (!slot) {
    slot = std::make_unique<Frame>();
    slot->fill(0);
    phys_counters().frames_materialized.inc();
  }
  return *slot;
}

void PhysicalMemory::check_range(std::uint64_t pa, std::uint64_t len) const {
  if (pa + len > size_) {
    throw MemoryError("physical access out of range: pa=" + std::to_string(pa) +
                      " len=" + std::to_string(len));
  }
}

void PhysicalMemory::read(std::uint64_t pa, MutableByteView out) const {
  check_range(pa, out.size());
  phys_counters().reads.inc();
  phys_counters().bytes_read.inc(out.size());
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t cur = pa + done;
    const auto frame_no = static_cast<std::uint32_t>(cur >> kFrameShift);
    const std::uint32_t in_frame = static_cast<std::uint32_t>(cur & (kFrameSize - 1));
    const std::size_t take =
        std::min<std::size_t>(kFrameSize - in_frame, out.size() - done);
    if (const Frame* f = frame_if_present(frame_no)) {
      copy_bytes(out.subspan(done, take), ByteView(*f).subspan(in_frame, take));
    } else {
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(done), take,
                  std::uint8_t{0});
    }
    done += take;
  }
}

ByteView PhysicalMemory::frame_view(std::uint32_t frame_no) const {
  check_range(std::uint64_t{frame_no} << kFrameShift, kFrameSize);
  phys_counters().frame_views.inc();
  if (const Frame* f = frame_if_present(frame_no)) {
    return ByteView(*f);
  }
  static const Frame zero_frame{};
  return ByteView(zero_frame);
}

void PhysicalMemory::write(std::uint64_t pa, ByteView data) {
  check_range(pa, data.size());
  phys_counters().writes.inc();
  phys_counters().bytes_written.inc(data.size());
  ++write_counter_;
  const auto first_frame = static_cast<std::uint32_t>(pa >> kFrameShift);
  const auto last_frame =
      static_cast<std::uint32_t>((pa + data.size() - 1) >> kFrameShift);
  if (last_frame >= frame_stamps_.size()) {
    frame_stamps_.resize(last_frame + 1, 0);
  }
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t cur = pa + done;
    const auto frame_no = static_cast<std::uint32_t>(cur >> kFrameShift);
    const std::uint32_t in_frame = static_cast<std::uint32_t>(cur & (kFrameSize - 1));
    const std::size_t take =
        std::min<std::size_t>(kFrameSize - in_frame, data.size() - done);
    Frame& f = frame_for_write(frame_no);
    copy_bytes(MutableByteView(f).subspan(in_frame, take),
               data.subspan(done, take));
    frame_stamps_[frame_no] = write_counter_;
    done += take;
  }
  if (watch_ != nullptr) {
    watch_->note_write(watch_domain_, first_frame, last_frame);
  }
}

void PhysicalMemory::note_cr3_switch() {
  if (watch_ != nullptr) {
    watch_->note_cr3_switch(watch_domain_);
  }
}

std::uint64_t PhysicalMemory::frame_version(std::uint32_t frame_no) const {
  const std::uint64_t stamped =
      frame_no < frame_stamps_.size() ? frame_stamps_[frame_no] : 0;
  return std::max(stamped, version_floor_);
}

std::uint8_t PhysicalMemory::read_u8(std::uint64_t pa) const {
  std::uint8_t b = 0;
  read(pa, MutableByteView(&b, 1));
  return b;
}

std::uint32_t PhysicalMemory::read_u32(std::uint64_t pa) const {
  std::uint8_t buf[4];
  read(pa, MutableByteView(buf, 4));
  return load_le32(ByteView(buf, 4), 0);
}

void PhysicalMemory::write_u32(std::uint64_t pa, std::uint32_t value) {
  std::uint8_t buf[4];
  store_le32(MutableByteView(buf, 4), 0, value);
  write(pa, ByteView(buf, 4));
}

PhysicalMemory PhysicalMemory::clone() const {
  // The clone backs a different domain (or a snapshot), so it does not
  // inherit the watch wiring — the hypervisor attaches clones it promotes.
  PhysicalMemory copy(size_);
  copy.next_alloc_frame_ = next_alloc_frame_;
  copy.write_counter_ = write_counter_;
  copy.version_floor_ = version_floor_;
  copy.frame_stamps_ = frame_stamps_;
  for (const auto& [frame_no, frame] : frames_) {
    copy.frames_[frame_no] = std::make_unique<Frame>(*frame);
  }
  return copy;
}

void PhysicalMemory::restore_from(const PhysicalMemory& other) {
  MC_CHECK(other.size_ == size_, "snapshot size mismatch");
  next_alloc_frame_ = other.next_alloc_frame_;
  frames_.clear();
  for (const auto& [frame_no, frame] : other.frames_) {
    frames_[frame_no] = std::make_unique<Frame>(*frame);
  }
  // A restore rewrites (conceptually) EVERY frame — including frames that
  // existed before the snapshot and are now back to zero.  Raise the
  // version floor so every frame reports a fresh version, and tell the
  // watch layer the frame<->content association it registered no longer
  // holds.
  ++write_counter_;
  version_floor_ = write_counter_;
  frame_stamps_.clear();
  if (watch_ != nullptr) {
    watch_->note_bulk_invalidate(watch_domain_);
  }
}

}  // namespace mc::vmm
