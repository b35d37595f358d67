// The ten line rules (RULES.md gives each one's rationale).  They are
// specified over the lines of the comment/string-stripped source, and
// what follows from that is specified behaviour, pinned by the line-rule
// table in analyze_test.cpp:
//
//   * raw-reinterpret-cast, raw-memcpy, std-rand, naked-new and
//     naked-delete report a line's first banned token only; `= delete`
//     is a declaration, not a deallocation;
//   * parser-bounds-check validates per line: MC_CHECK, `.size()`
//     (spelled without spaces) or load_le*/store_le* anywhere on a line
//     validates that line and the rest of the body;
//   * pipeline-bypass and format-bypass see a construction only when the
//     type, the name and the `(`/`{`/`;`/`=` after it share one line;
//   * adhoc-stats fires on a Stats definition whose `{` is on its line;
//   * catch-swallow alone matches a handler across lines.
//
// Semantic improvements belong in new rules, visible in the catalog, not
// in silent changes to these.
#include <algorithm>
#include <initializer_list>

#include "rules.hpp"

namespace mc::lint::rules {

namespace {

/// Token indices grouped by 0-based line.
std::vector<std::vector<std::size_t>> by_line(const ScannedSource& src,
                                              const std::vector<Token>& toks) {
  std::vector<std::vector<std::size_t>> lines(src.code.size());
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const auto li = static_cast<std::size_t>(toks[i].line - 1);
    if (li < lines.size()) {
      lines[li].push_back(i);
    }
  }
  return lines;
}

struct TokenRule {
  const char* token;
  const char* rule;
  const char* message;
};

constexpr TokenRule kTokenRules[] = {
    {"reinterpret_cast", "raw-reinterpret-cast",
     "raw reinterpret_cast on guest data; use mc::as_bytes / util/bytes.hpp"},
    {"memcpy", "raw-memcpy",
     "raw memcpy; use mc::copy_bytes / load_le* / store_le* (bounds-checked)"},
    {"rand", "std-rand",
     "std::rand is not reproducible; use the seeded generators in "
     "util/rng.hpp"},
    {"srand", "std-rand",
     "srand is not reproducible; use the seeded generators in util/rng.hpp"},
    {"new", "naked-new",
     "naked new; express ownership with std::make_unique/std::make_shared "
     "(R.11)"},
    {"delete", "naked-delete",
     "naked delete; express ownership with std::unique_ptr (R.11)"},
};

void token_rules(const std::vector<Token>& toks,
                 const std::vector<std::vector<std::size_t>>& lines,
                 const std::string& file, std::vector<Finding>& out) {
  for (std::size_t li = 0; li < lines.size(); ++li) {
    for (const TokenRule& tr : kTokenRules) {
      // First occurrence per line per rule entry.
      for (const std::size_t ti : lines[li]) {
        const Token& t = toks[ti];
        if (t.kind != Tok::kIdent || t.text != tr.token) {
          continue;
        }
        bool skip = false;
        if (t.text == "delete" && ti > 0) {
          const Token& prev = toks[ti - 1];
          // `= delete` declarations: the preceding token on the same
          // line ends in '='.
          skip = prev.line == t.line && !prev.text.empty() &&
                 prev.text.back() == '=';
        }
        if (!skip) {
          out.push_back({file, t.line, tr.rule, tr.message});
        }
        break;  // this rule entry is done for this line either way
      }
    }
  }
}

void bounds_rule(const std::vector<Token>& toks,
                 const std::vector<std::vector<std::size_t>>& lines,
                 const std::string& file, std::vector<Finding>& out) {
  struct Scope {
    std::vector<std::string> params;
    int close_depth = 0;
    bool validated = false;
  };
  std::vector<Scope> scopes;
  std::vector<std::string> pending;
  int depth = 0;

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::vector<std::size_t>& line = lines[li];

    // 1. Collect `(Mutable)ByteView <ident>` parameters, MutableByteView
    //    occurrences first, then ByteView.
    for (const char* type : {"MutableByteView", "ByteView"}) {
      for (std::size_t k = 0; k < line.size(); ++k) {
        const Token& t = toks[line[k]];
        if (t.kind == Tok::kIdent && t.text == type && k + 1 < line.size() &&
            toks[line[k + 1]].kind == Tok::kIdent) {
          pending.push_back(toks[line[k + 1]].text);
        }
      }
    }

    // 2. Validation / subscript checks against the innermost scope.
    if (!scopes.empty()) {
      Scope& scope = scopes.back();
      bool validated_here = false;
      for (std::size_t k = 0; k < line.size() && !validated_here; ++k) {
        const Token& t = toks[line[k]];
        if (t.kind == Tok::kIdent &&
            (t.text == "MC_CHECK" ||
             t.text.find("load_le") != std::string::npos ||
             t.text.find("store_le") != std::string::npos)) {
          validated_here = true;
        }
        // `.size()` with exact adjacency (no spaces inside).
        if (is_punct(t, ".") && k + 3 < line.size()) {
          const Token& a = toks[line[k + 1]];
          const Token& b = toks[line[k + 2]];
          const Token& c = toks[line[k + 3]];
          if (is_ident(a, "size") && a.col == t.col + 1 && is_punct(b, "(") &&
              b.col == t.col + 5 && is_punct(c, ")") && c.col == t.col + 6) {
            validated_here = true;
          }
        }
      }
      if (validated_here) {
        scope.validated = true;
      } else if (!scope.validated) {
        for (const std::string& param : scope.params) {
          for (std::size_t k = 0; k < line.size(); ++k) {
            const Token& t = toks[line[k]];
            if (t.kind == Tok::kIdent && t.text == param &&
                k + 1 < line.size() && is_punct(toks[line[k + 1]], "[")) {
              out.push_back(
                  {file, t.line, "parser-bounds-check",
                   "ByteView parameter '" + param +
                       "' indexed before MC_CHECK/size validation"});
            }
          }
        }
      }
    }

    // 3. Brace/terminator tracking.
    for (const std::size_t ti : line) {
      const Token& t = toks[ti];
      if (t.kind != Tok::kPunct) {
        continue;
      }
      if (t.text == "{") {
        if (!pending.empty()) {
          scopes.push_back({pending, depth, false});
          pending.clear();
        }
        ++depth;
      } else if (t.text == "}") {
        --depth;
        if (!scopes.empty() && depth <= scopes.back().close_depth) {
          scopes.pop_back();
        }
      } else if (t.text == ";") {
        pending.clear();
      }
    }
  }
}

/// pipeline-bypass / format-bypass: one of `types` constructed on one
/// line, as a temporary `T(...)` or as `T name` followed by `(`, `{`, `;`
/// or `=`.  A name after class/struct/friend is a declaration.
void bypass_rule(const std::vector<Token>& toks,
                 const std::vector<std::vector<std::size_t>>& lines,
                 const std::string& file,
                 std::initializer_list<const char*> types, const char* rule,
                 const char* remedy, std::vector<Finding>& out) {
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::vector<std::size_t>& line = lines[li];
    for (const char* type : types) {
      for (std::size_t k = 0; k < line.size(); ++k) {
        const Token& t = toks[line[k]];
        if (t.kind != Tok::kIdent || t.text != type) {
          continue;
        }
        if (k > 0) {
          const Token& prev = toks[line[k - 1]];
          if (prev.kind == Tok::kIdent &&
              (prev.text == "class" || prev.text == "struct" ||
               prev.text == "friend")) {
            continue;
          }
        }
        bool construction = false;
        if (k + 1 < line.size()) {
          const Token& next = toks[line[k + 1]];
          if (is_punct(next, "(")) {
            construction = true;  // temporary: ModuleSearcher(session)
          } else if (next.kind == Tok::kIdent && k + 2 < line.size()) {
            const Token& after = toks[line[k + 2]];
            // `(`/`{`: explicit construction; `;`/`=`: default-constructed
            // local or owning member.  Only the token's first character
            // is tested, so `==` reads as `=`.
            const char c = after.kind == Tok::kPunct && !after.text.empty()
                               ? after.text[0]
                               : '\0';
            construction = c == '(' || c == '{' || c == ';' || c == '=';
          }
        }
        if (construction) {
          out.push_back({file, t.line, rule, std::string(type) + remedy});
        }
      }
    }
  }
}

void catch_rule(const std::vector<Token>& toks, const std::string& file,
                std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "catch")) {
      continue;
    }
    if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) {
      continue;  // not a handler clause
    }
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == std::string::npos) {
      continue;  // unbalanced — stay quiet
    }
    std::string param;
    for (std::size_t k = i + 2; k < close; ++k) {
      param += toks[k].text;
    }
    if (param == "...") {
      out.push_back(
          {file, toks[i].line, "catch-swallow",
           "catch (...) swallows every fault; catch a typed error and "
           "convert it into a FaultRecord (util/fault.hpp) or rethrow"});
      continue;
    }
    if (close + 1 >= toks.size() || !is_punct(toks[close + 1], "{")) {
      continue;
    }
    const std::size_t body_end = match_forward(toks, close + 1, "{", "}");
    if (body_end == std::string::npos) {
      continue;
    }
    if (body_end == close + 2) {  // no tokens between the braces
      out.push_back(
          {file, toks[i].line, "catch-swallow",
           "empty catch body swallows the fault; handle it, record a "
           "FaultRecord, or rethrow"});
    }
  }
}

void adhoc_stats_rule(const std::vector<Token>& toks,
                      const std::vector<std::vector<std::size_t>>& lines,
                      const std::string& file, std::vector<Finding>& out) {
  if (telemetry_owner(file)) {
    return;
  }
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::vector<std::size_t>& line = lines[li];
    for (std::size_t k = 0; k < line.size(); ++k) {
      const Token& t = toks[line[k]];
      if (!is_ident(t, "struct") || k + 1 >= line.size()) {
        continue;
      }
      const Token& name_tok = toks[line[k + 1]];
      if (name_tok.kind != Tok::kIdent) {
        continue;  // anonymous struct
      }
      const std::string& name = name_tok.text;
      if (name != "Stats" &&
          (name.size() < 5 ||
           name.compare(name.size() - 5, 5, "Stats") != 0)) {
        continue;
      }
      // A `{` must follow the name on the same line (definitions only).
      const int name_end = name_tok.col + static_cast<int>(name.size());
      bool has_brace = false;
      for (std::size_t m = k + 2; m < line.size(); ++m) {
        if (is_punct(toks[line[m]], "{") && toks[line[m]].col >= name_end) {
          has_brace = true;
          break;
        }
      }
      if (!has_brace) {
        continue;
      }
      out.push_back(
          {file, t.line, "adhoc-stats",
           "ad-hoc stats struct '" + name +
               "'; counters belong in the telemetry registry "
               "(src/telemetry/registry.hpp)"});
    }
  }
}

/// Files sanctioned to construct ModuleSearcher/ModuleParser.
bool pipeline_component_owner(const std::string& file) {
  static const char* kOwners[] = {
      "modchecker/pipeline.hpp", "modchecker/pipeline.cpp",
      "modchecker/searcher.hpp", "modchecker/searcher.cpp",
      "modchecker/parser.hpp",   "modchecker/parser.cpp",
  };
  std::string norm = file;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  for (const char* owner : kOwners) {
    const std::string suffix(owner);
    if (norm.size() >= suffix.size() &&
        norm.compare(norm.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return true;
    }
  }
  return false;
}

/// Files sanctioned to construct pe::ParsedImage / elf::ElfImage: the
/// format libraries themselves.
bool format_plugin_owner(const std::string& file) {
  std::string norm = file;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  for (const char* dir : {"pe/", "elf/"}) {
    const std::string sub = std::string("/") + dir;
    if (norm.find(sub) != std::string::npos || norm.rfind(dir, 0) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool telemetry_owner(const std::string& file) {
  std::string norm = file;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  return norm.find("/telemetry/") != std::string::npos ||
         norm.rfind("telemetry/", 0) == 0;
}

void line_rules(const ScannedSource& src, const std::vector<Token>& toks,
                 const std::string& file, std::vector<Finding>& out) {
  const auto lines = by_line(src, toks);
  token_rules(toks, lines, file, out);
  bounds_rule(toks, lines, file, out);
  if (!pipeline_component_owner(file)) {
    bypass_rule(toks, lines, file, {"ModuleSearcher", "ModuleParser"},
                "pipeline-bypass",
                " constructed outside the CheckPipeline; drive the "
                "AcquireStage/ParseStage of modchecker/pipeline.hpp instead",
                out);
  }
  if (!format_plugin_owner(file)) {
    bypass_rule(toks, lines, file, {"ParsedImage", "ElfImage"},
                "format-bypass",
                " constructed outside its format plugin; resolve the module "
                "through the core::FormatRegistry (modchecker/format.hpp) "
                "instead",
                out);
  }
  catch_rule(toks, file, out);
  adhoc_stats_rule(toks, lines, file, out);
}

}  // namespace mc::lint::rules
