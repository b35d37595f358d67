// Source model for the analysis engine: a comment/string stripper and the
// one suppression syntax (`// mc-lint: allow(rule)`) every rule shares.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mc::lint {

/// One source file split into scannable form: code with comments and
/// literal contents blanked (quotes kept), plus the comment text per line
/// (for suppression directives).
struct ScannedSource {
  std::vector<std::string> code;      // sanitized, 0-based
  std::vector<std::string> comments;  // concatenated comment text per line
};

/// Strips comments and string/char literal contents (keeping the quotes) so
/// rules never fire on prose; comment text is preserved per line for the
/// suppression parser.
ScannedSource scan(const std::string& content);

/// One rule id an allow(...) directive names, on the directive's 0-based
/// line.
struct AllowDirective {
  std::size_t line = 0;
  std::string rule;
};

/// Parses every `mc-lint: allow(rule-a, rule-b)` directive and returns,
/// per 0-based line, the set of rules suppressed on that line.  A directive
/// on a code line covers that line; on a comment-only line it covers the
/// following line.  A marker inside a `backtick` span of its comment is an
/// example in prose, not a directive.  Each id a directive names is also
/// appended to `named` when it is non-null.
std::map<std::size_t, std::set<std::string>> suppressions(
    const ScannedSource& src, std::vector<AllowDirective>* named = nullptr);

// ---- Small text helpers ----------------------------------------------------

bool is_word_char(char c);
bool is_blank(const std::string& s);

}  // namespace mc::lint
