// mc_lint — in-repo static analysis enforcing ModChecker's guest-memory
// safety invariants.
//
// The engine re-lexes each translation unit into a token stream over the
// comment/string-stripped source (source.hpp, token.hpp), builds a
// cross-file function index (index.hpp) from every indexed path, and runs
// one catalog of sixteen rules: the ten line rules (rules_line.cpp) and
// six semantic rules that need the token stream or the index
// (rule_*.cpp, each with its specification at the top).  RULES.md gives
// every rule's rationale.
//
// A finding on line N is suppressed by `// mc-lint: allow(<rule>)` either
// at the end of line N or on an otherwise-empty comment line N-1.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "index.hpp"

namespace mc::lint {

struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// "file:line: [rule] message" — the grep/IDE-friendly format.
std::string format_finding(const Finding& f);

/// The rule catalog (the only ids allow(...), --disable and --allow
/// accept): the ten line rules, then the six semantic rules.
const std::vector<std::string>& rule_ids();

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
  /// Per-file errors, the walk continuing past them: read errors
  /// ("path: reason") and allow(...) directives naming an id outside the
  /// catalog ("path:line: ...").
  std::vector<std::string> errors;
};

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
