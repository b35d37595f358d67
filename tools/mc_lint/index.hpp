// Cross-file function index for the analyzer.
//
// Built from the token streams of every indexed file (headers and sources
// alike): for each function it records the return type and annotations the
// fallible-discard rule needs (name -> "Fallible<...>"/"MaybeFault",
// [[nodiscard]], defining file), and a behavioural summary the lock-order
// rule needs (the ordered lock/call event list, with the held-lock set at
// each event).  Indexing is name-based, not overload-resolved — the same
// trade every fast linter makes; a name collision shows up as a finding to
// audit, not a silent pass.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "token.hpp"

namespace mc::lint {

/// One indexed declaration (only declarations the rules care about are
/// recorded: fallible returns and [[nodiscard]]-annotated functions).
struct IndexedDecl {
  std::string name;
  std::string return_type;  // e.g. "Fallible<std::uint32_t>", "MaybeFault"
  bool nodiscard = false;
  bool fallible = false;  // returns Fallible<...> or MaybeFault
  std::string file;
  int line = 0;
};

/// A lock held at some program point: the mutex expression, the guard
/// variable that owns it, and the acquisition site.
struct HeldLock {
  std::string mutex;
  std::string guard;
  int line = 0;
};

/// One event inside a function body, in source order.
struct FnEvent {
  enum class Kind : unsigned char { kAcquire, kCall };
  Kind kind = Kind::kCall;
  std::string name;  // mutex expression (kAcquire) or callee name (kCall)
  /// For calls: identifier arguments (for the condvar wait(lock) pattern)
  /// and the receiver chain (`cv_.wait` -> {"cv_"}).
  std::vector<std::string> args;
  std::vector<std::string> receiver;
  int line = 0;
  /// Locks held when the event happens (before a kAcquire takes effect).
  std::vector<HeldLock> held;
};

/// Per-function behavioural summary.
struct FunctionSummary {
  std::string name;
  std::string file;
  int line = 0;
  std::vector<FnEvent> events;
  /// Flattened acquisition order (for one-level call inlining).
  std::vector<std::string> lock_order;
};

/// A function definition located in a token stream: name plus the token
/// indices of its body braces (inclusive).
struct FunctionBody {
  std::string name;
  std::size_t body_begin = 0;  // index of '{'
  std::size_t body_end = 0;    // index of matching '}'
  int line = 0;                // line of the name token
};

class FunctionIndex {
 public:
  /// Indexes one file's token stream: declarations and function summaries.
  void add(const std::string& file, const std::vector<Token>& toks);

  /// True when `name` is indexed with a Fallible<...>/MaybeFault return.
  bool fallible(const std::string& name) const {
    return fallible_.count(name) > 0;
  }

  const std::map<std::string, IndexedDecl>& decls() const { return decls_; }

  /// Summaries for every indexed function that acquires locks or makes
  /// calls (keyed by unqualified name; later definitions with the same
  /// name append their events under a fresh entry).
  const std::vector<FunctionSummary>& summaries() const { return summaries_; }

  /// First summary for `name`, or nullptr.
  const FunctionSummary* summary(const std::string& name) const;

 private:
  std::set<std::string> fallible_;
  std::map<std::string, IndexedDecl> decls_;
  std::vector<FunctionSummary> summaries_;
  std::map<std::string, std::size_t> summary_by_name_;  // first wins
};

/// Locates every function definition in a token stream (methods, free
/// functions, out-of-line `Class::method` definitions; constructors with
/// init lists included).  Lambda bodies are not split out — their tokens
/// belong to the enclosing function, which is the right scoping for lint.
std::vector<FunctionBody> split_functions(const std::vector<Token>& toks);

/// Extracts the ordered lock/call event list of one function body.
std::vector<FnEvent> extract_events(const std::vector<Token>& toks,
                                    const FunctionBody& fn);

/// Callees that block: pool scheduling, condvar/future waits, and guest
/// reads (every guest read is a simulated long operation).  The lock-order
/// rule flags these under a service-layer mutex.
bool is_blocking_callee(const std::string& name);

}  // namespace mc::lint
