// mc_lint CLI — analyzes the given files or directory trees and
// exits non-zero on any finding.  Registered as ctest gates so invariant
// violations fail the build the same way a unit test does.
//
//   mc_lint [options] <path>...
//
//   --list-rules         print the rule catalog
//   --format=text|sarif  findings as grep lines or a SARIF 2.1.0 log
//   --output=<file>      write findings there instead of stdout
//   --disable=<r1,r2>    skip the named rules
//   --allow=<rule>:<s>   drop <rule> findings in files whose path contains
//                        <s> — the audited path-allowlist
//   --index=<path>       feed <path> to the cross-file index without
//                        analyzing it (repeatable)
//   --budget-ms=<n>      wall-clock budget for --timing-gate (default 5000)
//   --timing-gate        run as the CI timing guard: report elapsed time,
//                        exit 4 over budget, 0 otherwise (findings are not
//                        the gate's concern)
//
// Exit codes: 0 clean, 1 findings, 2 usage error (a rule id outside the
// catalog included, in an option or an allow(...) directive) or unreadable
// files, 4 timing budget exceeded.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "sarif.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: mc_lint [--list-rules] [--format=text|sarif] "
               "[--output=FILE]\n"
               "               [--disable=RULES] [--allow=RULE:SUBSTR] "
               "[--index=PATH]\n"
               "               [--budget-ms=N] [--timing-gate] <path>...\n");
}

/// Collects every *.cpp / *.hpp under `root` (or `root` itself when it is a
/// file), sorted.
void collect(const std::string& root, std::vector<std::string>& files) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    files.push_back(root);
    return;
  }
  std::vector<std::string> found;
  for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (ext == ".cpp" || ext == ".hpp") {
      found.push_back(entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  files.insert(files.end(), found.begin(), found.end());
}

bool read_file(const std::string& path, std::string& content,
               std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = path + ": cannot read";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  content = buf.str();
  return true;
}

/// False, after naming it on stderr, when `rule` (given to `option`) is
/// not in the catalog: a misspelt id would relax nothing.
bool known_rule(const std::string& rule, const char* option) {
  const std::vector<std::string>& ids = mc::lint::rule_ids();
  if (std::find(ids.begin(), ids.end(), rule) != ids.end()) {
    return true;
  }
  std::fprintf(stderr, "mc_lint: %s names unknown rule '%s'\n", option,
               rule.c_str());
  return false;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t comma = s.find(',', begin);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > begin) {
      out.push_back(s.substr(begin, end - begin));
    }
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::string> paths;
  std::vector<std::string> index_paths;
  mc::lint::AnalyzeOptions opts;
  bool list_rules = false;
  bool timing_gate = false;
  long budget_ms = 5000;
  std::string format = "text";
  std::string output;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = value("--format=");
      if (format != "text" && format != "sarif") {
        std::fprintf(stderr, "mc_lint: --format must be text or sarif\n");
        return 2;
      }
    } else if (arg.rfind("--output=", 0) == 0) {
      output = value("--output=");
    } else if (arg.rfind("--disable=", 0) == 0) {
      for (const std::string& rule : split_commas(value("--disable="))) {
        if (!known_rule(rule, "--disable")) {
          return 2;
        }
        opts.disabled.insert(rule);
      }
    } else if (arg.rfind("--allow=", 0) == 0) {
      const std::string v = value("--allow=");
      const std::size_t colon = v.find(':');
      if (colon == std::string::npos || colon == 0 || colon + 1 >= v.size()) {
        std::fprintf(stderr, "mc_lint: --allow wants RULE:PATH-SUBSTRING\n");
        return 2;
      }
      if (!known_rule(v.substr(0, colon), "--allow")) {
        return 2;
      }
      opts.allow_paths.emplace_back(v.substr(0, colon), v.substr(colon + 1));
    } else if (arg.rfind("--index=", 0) == 0) {
      index_paths.push_back(value("--index="));
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      budget_ms = std::strtol(value("--budget-ms=").c_str(), nullptr, 10);
      if (budget_ms <= 0) {
        std::fprintf(stderr, "mc_lint: --budget-ms wants a positive count\n");
        return 2;
      }
    } else if (arg == "--timing-gate") {
      timing_gate = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mc_lint: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const auto& rule : mc::lint::rule_ids()) {
      std::printf("%s\n", rule.c_str());
    }
    return 0;
  }
  if (paths.empty()) {
    usage(stderr);
    return 2;
  }

  // Index-only paths first; an unreadable file is recorded and the walk
  // goes on.
  mc::lint::Analyzer analyzer;
  const auto feed = [&](const std::vector<std::string>& roots, bool analyze) {
    std::vector<std::string> files;
    for (const std::string& root : roots) {
      collect(root, files);
    }
    for (const std::string& file : files) {
      std::string content;
      std::string error;
      if (!read_file(file, content, error)) {
        analyzer.add_error(error);
      } else if (analyze) {
        analyzer.add_source(file, content);
      } else {
        analyzer.index_source(file, content);
      }
    }
  };
  feed(index_paths, false);
  feed(paths, true);
  const auto [findings, errors] = analyzer.run(opts);

  std::string rendered;
  if (format == "sarif") {
    rendered = mc::lint::to_sarif(findings, mc::lint::rule_ids());
  } else {
    for (const auto& finding : findings) {
      rendered += mc::lint::format_finding(finding) + "\n";
    }
  }
  if (output.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    std::ofstream out(output, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "mc_lint: cannot write %s\n", output.c_str());
      return 2;
    }
    out << rendered;
  }

  for (const std::string& error : errors) {
    std::fprintf(stderr, "mc_lint: %s\n", error.c_str());
  }

  if (timing_gate) {
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    std::fprintf(stderr, "mc_lint: analyzed in %lld ms (budget %ld ms)\n",
                 static_cast<long long>(elapsed_ms), budget_ms);
    return elapsed_ms > budget_ms ? 4 : 0;
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "mc_lint: %zu finding(s)\n", findings.size());
  }
  if (!errors.empty()) {
    std::fprintf(stderr, "mc_lint: %zu file error(s)\n", errors.size());
    return 2;
  }
  return findings.empty() ? 0 : 1;
}
