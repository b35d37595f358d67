// Structured guest-fault domain.
//
// The paper assumes every introspected VM answers every read; real clouds
// do not — guests pause, migrate and page out mid-scan.  A transient
// introspection failure is therefore *data* the majority vote must reason
// about, not an exception that unwinds a whole pool sweep.  This header is
// the taxonomy: every fault observed on the scan hot path becomes a
// FaultRecord that travels in Result-style returns (`Fallible<T>` /
// `MaybeFault`) from the VMI layer up through the CheckPipeline into the
// reports.  There is no throwing guest-read path: exceptions are reserved
// for genuine API misuse (InvalidArgument, an unknown symbol name) and a
// nonexistent domain at attach (NotFoundError), which the pipeline turns
// into kDomainGone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "util/error.hpp"

namespace mc {

/// What went wrong.  One code per distinguishable failure shape so retry /
/// quarantine policies and operators can discriminate without string
/// matching.
enum class FaultCode : std::uint8_t {
  kReadFault,          // guest memory read failed (paged out, I/O error)
  kTranslationFault,   // V2P walk hit a non-present PDE/PTE
  kNoAddressSpace,     // guest has no CR3 yet (not booted)
  kDebugBlockMissing,  // KDBG-style scan found no debug block
  kDomainGone,         // domain disappeared between list and attach
  kUnrecognizedBuild,  // debug-block version id matches no known profile
  kLoaderListCycle,    // loader-list walk never returned to its head
};

/// Which pipeline stage observed the fault.
enum class CheckStage : std::uint8_t {
  kAcquire,
  kParse,
  kNormalize,
  kCompare,
  kVote,
  kService,
};

const char* to_string(FaultCode code);
const char* to_string(CheckStage stage);

/// One observed fault: what, where (domain / guest VA / physical address),
/// on which retry attempt, in which stage.  `domain` is the vmm::DomainId
/// value; it is carried as the raw integer so util/ stays free of a vmm/
/// dependency.
struct FaultRecord {
  FaultCode code = FaultCode::kReadFault;
  std::uint32_t domain = 0;
  std::uint32_t va = 0;       // guest-virtual address, when meaningful
  std::uint64_t pa = 0;       // guest-physical address, when meaningful
  std::uint32_t attempt = 0;  // 1-based retry attempt that observed it
  CheckStage stage = CheckStage::kAcquire;
  std::string detail;         // human-readable specifics
};

/// "Dom3 acquire attempt 2: read-fault at va=0x... — detail".
std::string format_fault(const FaultRecord& record);

/// Result-style return: either a value or the fault that prevented it.
/// Deliberately minimal (no monadic sugar) — call sites read as
/// `if (!r.ok()) return r.fault();`.  The class itself is [[nodiscard]]:
/// dropping a Fallible return silently converts a guest fault into
/// "nothing happened" (the tier-2 fallible-discard rule enforces the same
/// contract across files, with or without the attribute in scope).
template <typename T>
class [[nodiscard]] Fallible {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, so
  // plain `return value;` / `return fault;` both work at call sites.
  Fallible(T value) : v_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Fallible(FaultRecord fault) : v_(std::move(fault)) {}

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  T& value() {
    MC_CHECK(ok(), "Fallible::value() on a faulted result");
    return std::get<T>(v_);
  }
  const T& value() const {
    MC_CHECK(ok(), "Fallible::value() on a faulted result");
    return std::get<T>(v_);
  }

  FaultRecord& fault() {
    MC_CHECK(!ok(), "Fallible::fault() on a successful result");
    return std::get<FaultRecord>(v_);
  }
  const FaultRecord& fault() const {
    MC_CHECK(!ok(), "Fallible::fault() on a successful result");
    return std::get<FaultRecord>(v_);
  }

 private:
  std::variant<T, FaultRecord> v_;
};

/// For void-returning operations: empty means success.
using MaybeFault = std::optional<FaultRecord>;

}  // namespace mc
