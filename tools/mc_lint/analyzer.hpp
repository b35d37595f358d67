// mc_analyze — the tier-2, token-stream analysis engine.
//
// Tier 1 (linter.hpp) is the fast per-line scanner; this engine re-lexes
// each translation unit into a real token stream, builds a cross-file
// function index (index.hpp) from every indexed path, and runs:
//
//   * the token-stream port of all nine tier-1 rules (byte-identical
//     findings — proven by the differential self-test), and
//   * six semantic rules the line scanner cannot express:
//
//   fallible-discard   a call to a function indexed as returning
//                      Fallible<T>/MaybeFault whose result is discarded as
//                      a full statement — the fault would be silently
//                      dropped.  Bind it, branch on it, or assign to
//                      std::ignore.
//   lock-order         per-function lock-acquisition graphs (scoped_lock /
//                      lock_guard / unique_lock sites, one call level
//                      inlined through the index): inconsistent A→B/B→A
//                      mutex orderings anywhere, and blocking operations
//                      (pool submit/wait_idle/pool_scan, condvar waits not
//                      releasing the held guard, guest reads) while holding
//                      a service-layer mutex.
//   sim-determinism    wall clocks (steady_clock/system_clock/
//                      high_resolution_clock), std::random_device, and
//                      range-for iteration over unordered containers in any
//                      TU that charges SimClock costs — each breaks the
//                      bit-identical-replay property the differential
//                      suites depend on.  src/telemetry/ is the audited
//                      allowlist: its spans measure *host* time by design.
//   guest-taint        intraprocedural taint from guest-read sources
//                      (read_*/try_read_*, load_le*, as_bytes) to
//                      array-subscript / resize / guest-sized-allocation
//                      sinks without an intervening bounds check (MC_CHECK,
//                      comparison, min/max/clamp).
//   hotpath-copy       owned-buffer materializations and un-dispatched
//                      pairwise byte compares in TUs referencing the
//                      zero-copy Normalize/Compare/Hash vocabulary.
//   watch-bypass       frame_version()/write_counter() polling outside
//                      vmm/write_watch + vmm/phys_mem — dirty checks must
//                      go through WatchSets / domain write generations.
//
// `// mc-lint: allow(rule)` suppressions work unchanged for every rule.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "index.hpp"
#include "linter.hpp"

namespace mc::lint {

struct AnalyzeOptions {
  /// Rule ids to skip entirely (the gate-level relaxed sets).
  std::set<std::string> disabled;
  /// (rule, path substring) pairs: findings of `rule` in files whose path
  /// contains the substring are dropped — the audited-allowlist mechanism
  /// (e.g. std-rand in fuzz seeders), preferred over per-line suppression
  /// comments when a whole file/directory is exempt by policy.
  std::vector<std::pair<std::string, std::string>> allow_paths;
};

struct AnalyzeResult {
  std::vector<Finding> findings;  // ordered by (file, line)
  /// Per-file read errors ("path: reason"); the walk continues past them.
  std::vector<std::string> errors;
};

/// The six semantic rule ids introduced by this engine.
const std::vector<std::string>& analyzer_rule_ids();

/// Full catalog: the ten tier-1 ids plus the six semantic ids.
std::vector<std::string> all_rule_ids();

class Analyzer {
 public:
  /// Feeds one file to the cross-file index only (not analyzed/reported).
  void index_source(const std::string& file, const std::string& content);

  /// Feeds one file to the index *and* queues it for analysis.
  void add_source(const std::string& file, const std::string& content);

  /// Records a file that could not be read; run() surfaces it.
  void add_error(std::string message) { errors_.push_back(std::move(message)); }

  /// Runs every rule over the queued files.  Callable once per Analyzer.
  AnalyzeResult run(const AnalyzeOptions& opts = {});

  const FunctionIndex& index() const { return index_; }

  /// The tier-2 port of the nine tier-1 rules alone, suppressions applied —
  /// the surface the differential self-test compares against lint_source().
  static std::vector<Finding> legacy_findings(const std::string& file,
                                              const std::string& content);

 private:
  struct Unit {
    std::string file;
    ScannedSource src;
    std::vector<Token> tokens;
  };
  FunctionIndex index_;
  std::vector<Unit> units_;
  std::vector<std::string> errors_;
};

}  // namespace mc::lint
