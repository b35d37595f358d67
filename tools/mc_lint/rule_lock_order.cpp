// lock-order — deadlock and held-lock-blocking analysis over the index.
//
// The sweep path takes locks in three layers (the coordinator's pool
// registry, SweepQueue, pipeline stage state) and the TSan matrix only proves the
// orders that a particular run happened to exercise.  This rule checks the
// whole index statically:
//
//   * For every acquisition performed while another lock is held, record
//     the ordered edge (held -> acquired).  One call level is inlined
//     through the function index: `f` holding `a_` and calling `g`, which
//     acquires `b_`, contributes a->b.  Two edges in opposite directions
//     between the same pair is the classic ABBA inversion — flagged at
//     both sites, each message cross-referencing the other.
//   * A blocking operation (pool submit/wait_idle, condvar waits, guest
//     reads — see is_blocking_callee) performed while holding a
//     service-layer mutex (an acquisition inside src/service/ or a
//     "service" fixture) stalls every other sweep that needs the lock.
//     The condition-variable idiom `cv_.wait(lock, ...)` is excepted when
//     the wait is passed a held guard — that wait *releases* the lock.
//
// Mutexes are compared by expression text; an edge from a mutex onto a
// same-named mutex (e.g. two classes both naming their member `mutex_`) is
// skipped rather than reported, since name identity cannot prove object
// identity across classes.
#include <map>
#include <utility>

#include "rules.hpp"

namespace mc::lint::rules {

namespace {

struct Site {
  std::string file;
  std::string function;
  int line = 0;
};

bool service_layer(const std::string& file) {
  return file.find("service") != std::string::npos;
}

bool condvar_wait_exception(const FnEvent& e) {
  if (e.name != "wait" && e.name != "wait_for" && e.name != "wait_until") {
    return false;
  }
  for (const std::string& arg : e.args) {
    for (const HeldLock& h : e.held) {
      if (arg == h.guard) {
        return true;  // wait(lock, ...) releases the guard while waiting
      }
    }
  }
  return false;
}

bool summary_blocks(const FunctionSummary& s) {
  for (const FnEvent& e : s.events) {
    if (e.kind == FnEvent::Kind::kCall && is_blocking_callee(e.name) &&
        !condvar_wait_exception(e)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void lock_order(const FunctionIndex& idx,
                const std::set<std::string>& report_files,
                std::vector<Finding>& out) {
  // --- Acquisition-order edges (first site per direction wins). ----------
  std::map<std::pair<std::string, std::string>, Site> edges;
  const auto add_edge = [&](const std::string& a, const std::string& b,
                            const FunctionSummary& s, int line) {
    if (a == b) {
      return;  // same-named mutex across classes: not provably one object
    }
    edges.emplace(std::make_pair(a, b), Site{s.file, s.name, line});
  };

  for (const FunctionSummary& s : idx.summaries()) {
    for (const FnEvent& e : s.events) {
      if (e.kind == FnEvent::Kind::kAcquire) {
        for (const HeldLock& h : e.held) {
          add_edge(h.mutex, e.name, s, e.line);
        }
      } else if (!e.held.empty()) {
        // One-level inlining: locks the callee acquires are ordered after
        // every lock held at the call site.
        const FunctionSummary* callee = idx.summary(e.name);
        if (callee == nullptr || callee->name == s.name) {
          continue;
        }
        for (const HeldLock& h : e.held) {
          for (const std::string& m : callee->lock_order) {
            add_edge(h.mutex, m, s, e.line);
          }
        }
      }
    }
  }

  // --- ABBA inversions: both (a,b) and (b,a) recorded. -------------------
  for (const auto& [pair, site] : edges) {
    const auto& [a, b] = pair;
    if (a > b) {
      continue;  // handle each unordered pair once
    }
    const auto rev = edges.find(std::make_pair(b, a));
    if (rev == edges.end()) {
      continue;
    }
    const auto report = [&](const std::string& x, const std::string& y,
                            const Site& here, const Site& there) {
      if (report_files.count(here.file) == 0) {
        return;
      }
      out.push_back(
          {here.file, here.line, "lock-order",
           "'" + y + "' acquired while holding '" + x + "' in " +
               here.function + "(), but the opposite order exists at " +
               there.file + ":" + std::to_string(there.line) + " (" +
               there.function + "()); pick one order (deadlock risk)"});
    };
    report(a, b, site, rev->second);
    report(b, a, rev->second, site);
  }

  // --- Blocking calls under a service-layer mutex. -----------------------
  for (const FunctionSummary& s : idx.summaries()) {
    if (!service_layer(s.file) || report_files.count(s.file) == 0) {
      continue;
    }
    for (const FnEvent& e : s.events) {
      if (e.kind != FnEvent::Kind::kCall || e.held.empty()) {
        continue;
      }
      if (condvar_wait_exception(e)) {
        continue;
      }
      bool blocks = is_blocking_callee(e.name);
      if (!blocks) {
        const FunctionSummary* callee = idx.summary(e.name);
        blocks = callee != nullptr && callee->name != s.name &&
                 summary_blocks(*callee);
      }
      if (!blocks) {
        continue;
      }
      const HeldLock& h = e.held.back();
      out.push_back(
          {s.file, e.line, "lock-order",
           "blocking call '" + e.name + "' while holding '" + h.mutex +
               "' (acquired line " + std::to_string(h.line) + " in " +
               s.name + "()); a stalled guest read or pool wait here "
               "serializes every sweep contending for the lock"});
    }
  }
}

}  // namespace mc::lint::rules
