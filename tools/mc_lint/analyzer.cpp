#include "analyzer.hpp"

#include <algorithm>

#include "rules.hpp"
#include "source.hpp"
#include "token.hpp"

namespace mc::lint {

const std::vector<std::string>& analyzer_rule_ids() {
  static const std::vector<std::string> kIds = {
      "fallible-discard",
      "lock-order",
      "sim-determinism",
      "guest-taint",
      "hotpath-copy",
      "watch-bypass",
  };
  return kIds;
}

std::vector<std::string> all_rule_ids() {
  std::vector<std::string> ids = rule_ids();
  const auto& extra = analyzer_rule_ids();
  ids.insert(ids.end(), extra.begin(), extra.end());
  return ids;
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
    rules::legacy_port(u.src, u.tokens, u.file, per_file[u.file]);
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

  for (const Unit& u : units_) {
    std::vector<Finding>& findings = per_file[u.file];
    const auto suppressed = suppressions(u.src);
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

std::vector<Finding> Analyzer::legacy_findings(const std::string& file,
                                               const std::string& content) {
  const ScannedSource src = scan(content);
  const std::vector<Token> toks = tokenize(src);
  std::vector<Finding> findings;
  rules::legacy_port(src, toks, file, findings);

  const auto suppressed = suppressions(src);
  std::erase_if(findings, [&](const Finding& f) {
    const auto it = suppressed.find(static_cast<std::size_t>(f.line - 1));
    return it != suppressed.end() && it->second.count(f.rule) > 0;
  });
  std::stable_sort(
      findings.begin(), findings.end(),
      [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return findings;
}

}  // namespace mc::lint
