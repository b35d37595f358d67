#include "analyzer.hpp"

#include <algorithm>

#include "rules.hpp"
#include "source.hpp"
#include "token.hpp"

namespace mc::lint {

std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kIds = {
      "raw-reinterpret-cast", "raw-memcpy",       "std-rand",
      "naked-new",            "naked-delete",     "parser-bounds-check",
      "pipeline-bypass",      "format-bypass",    "catch-swallow",
      "adhoc-stats",          "fallible-discard", "lock-order",
      "sim-determinism",      "guest-taint",      "hotpath-copy",
      "watch-bypass",
  };
  return kIds;
}

void Analyzer::index_source(const std::string& file,
                            const std::string& content) {
  index_.add(file, tokenize(scan(content)));
}

void Analyzer::add_source(const std::string& file, const std::string& content) {
  Unit u;
  u.file = file;
  u.src = scan(content);
  u.tokens = tokenize(u.src);
  index_.add(file, u.tokens);
  units_.push_back(std::move(u));
}

AnalyzeResult Analyzer::run(const AnalyzeOptions& opts) {
  AnalyzeResult result;
  result.errors = errors_;

  std::set<std::string> report_files;
  for (const Unit& u : units_) {
    report_files.insert(u.file);
  }

  // Raw findings per file (global rules report into the owning file's
  // bucket so its suppression map applies).
  std::map<std::string, std::vector<Finding>> per_file;
  for (const Unit& u : units_) {
    rules::line_rules(u.src, u.tokens, u.file, per_file[u.file]);
    rules::fallible_discard(u.tokens, index_, u.file, per_file[u.file]);
    rules::sim_determinism(u.tokens, u.file, per_file[u.file]);
    rules::guest_taint(u.tokens, u.file, per_file[u.file]);
    rules::hotpath_copy(u.tokens, u.file, per_file[u.file]);
    rules::watch_bypass(u.tokens, u.file, per_file[u.file]);
  }
  std::vector<Finding> global;
  rules::lock_order(index_, report_files, global);
  for (Finding& f : global) {
    per_file[f.file].push_back(std::move(f));
  }

  const auto allowed = [&](const Finding& f) {
    if (opts.disabled.count(f.rule) > 0) {
      return false;
    }
    for (const auto& [rule, substr] : opts.allow_paths) {
      if (f.rule == rule && f.file.find(substr) != std::string::npos) {
        return false;
      }
    }
    return true;
  };

  const std::vector<std::string>& catalog = rule_ids();
  for (const Unit& u : units_) {
    std::vector<Finding>& findings = per_file[u.file];
    std::vector<AllowDirective> named;
    const auto suppressed = suppressions(u.src, &named);
    for (const AllowDirective& d : named) {
      if (std::find(catalog.begin(), catalog.end(), d.rule) == catalog.end()) {
        result.errors.push_back(u.file + ":" + std::to_string(d.line + 1) +
                                ": allow(" + d.rule +
                                ") names no rule in the catalog");
      }
    }
    std::erase_if(findings, [&](const Finding& f) {
      const auto it = suppressed.find(static_cast<std::size_t>(f.line - 1));
      if (it != suppressed.end() && it->second.count(f.rule) > 0) {
        return true;
      }
      return !allowed(f);
    });
    std::stable_sort(
        findings.begin(), findings.end(),
        [](const Finding& a, const Finding& b) { return a.line < b.line; });
    result.findings.insert(result.findings.end(), findings.begin(),
                           findings.end());
  }
  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.file < b.file;
                   });
  return result;
}

}  // namespace mc::lint
