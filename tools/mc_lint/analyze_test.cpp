// mc_lint self-tests: the line-rule table (every line rule, suppression and
// stripper case as rows of fixture or inline source, reported file, rule
// and expected lines), fixture files per semantic rule (true positives at
// exact lines, suppressed sites, near-miss negatives), cross-file
// indexing, option plumbing, and SARIF structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analyzer.hpp"
#include "sarif.hpp"

namespace {

using mc::lint::AnalyzeOptions;
using mc::lint::AnalyzeResult;
using mc::lint::Analyzer;
using mc::lint::Finding;

std::string fixture(const std::string& name) {
  return std::string(MC_ANALYZE_FIXTURE_DIR) + "/" + name;
}

std::string line_fixture(const std::string& name) {
  return std::string(MC_LINT_FIXTURE_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs the engine over one fixture file in isolation.
AnalyzeResult analyze_fixture(const std::string& name,
                              const AnalyzeOptions& opts = {}) {
  Analyzer a;
  const std::string path = fixture(name);
  a.add_source(path, read_file(path));
  return a.run(opts);
}

/// The 1-based lines on which `rule` fired.
std::vector<int> lines_of(const AnalyzeResult& result,
                          const std::string& rule) {
  std::vector<int> lines;
  for (const Finding& f : result.findings) {
    if (f.rule == rule) {
      lines.push_back(f.line);
    }
  }
  return lines;
}

/// Every *.cpp / *.hpp under `root`, sorted.
std::vector<std::string> tree_files(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (ext == ".cpp" || ext == ".hpp") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// ---- Catalog ---------------------------------------------------------------

TEST(AnalyzeCatalog, SixteenRules) {
  const auto& ids = mc::lint::rule_ids();
  ASSERT_EQ(ids.size(), 16u);
  for (const char* rule :
       {"fallible-discard", "lock-order", "sim-determinism", "guest-taint",
        "hotpath-copy", "watch-bypass"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), rule), ids.end()) << rule;
  }
}

// ---- Line-rule table -------------------------------------------------------
//
// Every assertion on the ten line rules, the suppression syntax and the
// comment/string stripper is a row: the input (a file under fixtures/, or
// inline source), the file name findings report (the owner exemptions key
// on it; empty means the input is a fixture, reported under its path), the
// rule, the 1-based lines it fires on, and text every such finding's
// format_finding() line shows.  Rows that share a name form one test,
// registered under that name.  Each input's findings must be exactly the
// (rule, line) pairs its rows list, so a row with no lines also says that
// no other rule fires on that input.

struct Row {
  std::string name;  // "Suite.Test"
  std::string input;
  std::string file;
  std::string rule;
  std::vector<int> lines;
  std::string shows = {};
};

const char* const kStatsStruct = "struct ReaderStats { int n = 0; };\n";
const char* const kSearcher = "ModuleSearcher searcher(session);\n";
const char* const kParsedImage = "const ParsedImage parsed(mapped);\n";

const std::vector<Row> kRows = {
    {"LintFixtures.RawReinterpretCast", "raw_reinterpret_cast.cpp", "",
     "raw-reinterpret-cast", {6}},
    {"LintFixtures.RawMemcpy", "raw_memcpy.cpp", "", "raw-memcpy", {6}},
    {"LintFixtures.StdRand", "std_rand.cpp", "", "std-rand", {6, 7}},
    {"LintFixtures.NakedNewAndDelete", "naked_new.cpp", "", "naked-new", {6}},
    {"LintFixtures.NakedNewAndDelete", "naked_new.cpp", "", "naked-delete",
     {7}},
    {"LintFixtures.ParserBoundsCheck", "bounds.cpp", "", "parser-bounds-check",
     {9}, "'image'"},
    // The owning member, the named local, the temporary and the
    // default-constructed local fire; the forward declaration, the
    // allow()-escaped construction and the reference/pointer parameters
    // do not.
    {"LintFixtures.PipelineBypass", "pipeline_bypass.cpp", "",
     "pipeline-bypass", {8, 12, 13, 14}},
    {"LintFixtures.FormatBypass", "format_bypass.cpp", "", "format-bypass",
     {8, 12, 13, 14}},
    // The same-line and multi-line catch-alls, the empty typed handler and
    // the comment-only handler fire; the handling typed handler and the
    // allow()-escaped catch-all do not.
    {"LintFixtures.CatchSwallow", "catch_swallow.cpp", "", "catch-swallow",
     {7, 26}, "catch (...)"},
    {"LintFixtures.CatchSwallow", "catch_swallow.cpp", "", "catch-swallow",
     {12, 21}, "empty catch body"},
    // Definitions fire; the forward declaration, the allow()-escaped
    // definition and the non-Stats struct do not.
    {"LintFixtures.AdhocStats", "adhoc_stats.cpp", "", "adhoc-stats", {5},
     "'ScanStats'"},
    {"LintFixtures.AdhocStats", "adhoc_stats.cpp", "", "adhoc-stats", {9},
     "'Stats'"},
    // Lines 6 and 8 are suppressed; line 9's allow() names the wrong rule.
    {"LintFixtures.SuppressionsSameLineAndPrecedingLine", "suppressed.cpp", "",
     "raw-memcpy", {9}},
    {"LintFixtures.CleanFileHasNoFindings", "clean.cpp", "", "naked-delete",
     {}},
    {"LintSource.TelemetryOwnsItsStatsStructs", kStatsStruct,
     "src/telemetry/registry.hpp", "adhoc-stats", {}},
    {"LintSource.TelemetryOwnsItsStatsStructs", kStatsStruct,
     "/abs/src/telemetry/internal.cpp", "adhoc-stats", {}},
    {"LintSource.TelemetryOwnsItsStatsStructs", kStatsStruct,
     "src/vmi/session.hpp", "adhoc-stats", {1}},
    {"LintSource.TypedNonEmptyHandlerIsClean",
     "void f() {\n"
     "  try { g(); } catch (const VmiError& e) { record(e); }\n"
     "}\n",
     "ok.cpp", "catch-swallow", {}},
    // The stripper blanks string contents but keeps the quotes, so a body
    // that does something with a literal is not empty.
    {"LintSource.CatchBodyHoldingOnlyAStringIsNotEmpty",
     "void f() {\n"
     "  try { g(); } catch (const VmiError&) { log(\"vmi\"); }\n"
     "}\n",
     "str.cpp", "catch-swallow", {}},
    {"LintSource.PipelineOwnersAreExempt", kSearcher,
     "src/modchecker/pipeline.cpp", "pipeline-bypass", {}},
    {"LintSource.PipelineOwnersAreExempt", kSearcher,
     "src/modchecker/searcher.cpp", "pipeline-bypass", {}},
    {"LintSource.PipelineOwnersAreExempt", kSearcher,
     "/abs/path/src/modchecker/parser.hpp", "pipeline-bypass", {}},
    {"LintSource.PipelineOwnersAreExempt", kSearcher, "src/service/fleet.cpp",
     "pipeline-bypass", {1}},
    {"LintSource.FormatPluginOwnersAreExempt", kParsedImage,
     "src/pe/format_plugin.cpp", "format-bypass", {}},
    {"LintSource.FormatPluginOwnersAreExempt", kParsedImage,
     "/abs/src/elf/loader.cpp", "format-bypass", {}},
    {"LintSource.FormatPluginOwnersAreExempt", kParsedImage,
     "src/baselines/disk_crossview.cpp", "format-bypass", {1}},
    {"LintSource.CommentsAndStringsDoNotFire",
     "// memcpy(a, b, n)\n"
     "/* reinterpret_cast<int*>(p) */\n"
     "const char* s = \"delete new rand\";\n",
     "mem.cpp", "raw-memcpy", {}},
    {"LintSource.BlockCommentSpanningLinesIsStripped",
     "/* first line\n   memcpy(a, b, n)\n   last */\nint x = 0;\n",
     "block.cpp", "raw-memcpy", {}},
    {"LintSource.MemcpyAfterBlockCommentStillFires",
     "/* doc */ std::memcpy(a, b, n);\n", "mixed.cpp", "raw-memcpy", {1}},
    {"LintSource.SizeComparisonCountsAsValidation",
     "int parse(ByteView b) {\n"
     "  if (b.size() < 4) { return -1; }\n"
     "  return b[0];\n"
     "}\n",
     "parse.cpp", "parser-bounds-check", {}},
    {"LintSource.LoadLeCountsAsValidation",
     "int parse(ByteView b) {\n"
     "  const auto magic = load_le16(b, 0);\n"
     "  return magic + b[2];\n"
     "}\n",
     "parse.cpp", "parser-bounds-check", {}},
    {"LintSource.MutableByteViewParameterIsTracked",
     "void put(MutableByteView out) {\n  out[0] = 1;\n}\n", "store.cpp",
     "parser-bounds-check", {2}},
    // A ByteView local introduced by a statement (ended by ';') does not
    // leak into the next brace scope as a parameter.
    {"LintSource.LocalByteViewDeclarationIsNotAParameter",
     "void f() {\n"
     "  ByteView v = whole;\n"
     "  if (cond) {\n"
     "    use(v);\n"
     "  }\n"
     "}\n",
     "local.cpp", "parser-bounds-check", {}},
    {"LintSource.FormatFindingIsGrepFriendly", "std::memcpy(a, b, n);\n",
     "src/pe/parser.cpp", "raw-memcpy", {1},
     "src/pe/parser.cpp:1: [raw-memcpy] raw memcpy; use mc::copy_bytes"},
    {"LintSource.MultipleRulesInOneAllowList",
     "void* p = new int;  // mc-lint: allow(naked-new, raw-memcpy)\n",
     "multi.cpp", "naked-new", {}},
};

std::string reported_file(const Row& row) {
  return row.file.empty() ? line_fixture(row.input) : row.file;
}

std::string input_text(const Row& row) {
  return row.file.empty() ? read_file(line_fixture(row.input)) : row.input;
}

using Claims = std::multiset<std::tuple<std::string, std::string, int>>;

/// The (file, rule, line) findings `rows` list.
Claims claims_of(const std::vector<const Row*>& rows) {
  Claims claims;
  for (const Row* row : rows) {
    for (const int line : row->lines) {
      claims.emplace(reported_file(*row), row->rule, line);
    }
  }
  return claims;
}

Claims claims_of(const std::vector<Finding>& findings) {
  Claims claims;
  for (const Finding& f : findings) {
    claims.emplace(f.file, f.rule, f.line);
  }
  return claims;
}

/// Checks every input of the rows named `name`, one Analyzer per input.
void check_rows(const std::string& name) {
  std::map<std::pair<std::string, std::string>, std::vector<const Row*>>
      by_input;
  for (const Row& row : kRows) {
    if (row.name == name) {
      by_input[{reported_file(row), input_text(row)}].push_back(&row);
    }
  }
  for (const auto& [input, rows] : by_input) {
    Analyzer a;
    a.add_source(input.first, input.second);
    const auto findings = a.run().findings;
    EXPECT_EQ(claims_of(findings), claims_of(rows)) << input.first;
    for (const Row* row : rows) {
      for (const Finding& f : findings) {
        if (f.rule == row->rule &&
            std::count(row->lines.begin(), row->lines.end(), f.line) > 0) {
          EXPECT_NE(mc::lint::format_finding(f).find(row->shows),
                    std::string::npos)
              << mc::lint::format_finding(f);
        }
      }
    }
  }
}

class LineRuleRows : public ::testing::Test {
 public:
  explicit LineRuleRows(std::string name) : name_(std::move(name)) {}
  void TestBody() override { check_rows(name_); }

 private:
  std::string name_;
};

/// One test per row name, so ctest names the failing rows.
const bool kRowsRegistered = [] {
  std::set<std::string> names;
  for (const Row& row : kRows) {
    if (!names.insert(row.name).second) {
      continue;
    }
    const std::size_t dot = row.name.find('.');
    ::testing::RegisterTest(
        row.name.substr(0, dot).c_str(), row.name.substr(dot + 1).c_str(),
        nullptr, nullptr, __FILE__, __LINE__,
        [name = row.name]() -> ::testing::Test* {
          return new LineRuleRows(name);
        });
  }
  return true;
}();

TEST(LintRules, CatalogIsStable) {
  // The catalog leads with the ten line rules: exactly the rules the rows
  // name, and each fires on some row.
  const auto& ids = mc::lint::rule_ids();
  ASSERT_GE(ids.size(), 10u);
  const std::set<std::string> line_rules(ids.begin(), ids.begin() + 10);
  std::set<std::string> named;
  std::set<std::string> firing;
  for (const Row& row : kRows) {
    named.insert(row.rule);
    if (!row.lines.empty()) {
      firing.insert(row.rule);
    }
  }
  EXPECT_EQ(named, line_rules);
  EXPECT_EQ(firing, line_rules);
}

TEST(LintFixtures, TreeScanCoversEveryFixture) {
  // Every file under fixtures/ has rows, and one Analyzer over the whole
  // directory reports exactly the rows' findings: 22 of them.
  std::vector<const Row*> fixture_rows;
  std::set<std::string> covered;
  for (const Row& row : kRows) {
    if (row.file.empty()) {
      fixture_rows.push_back(&row);
      covered.insert(line_fixture(row.input));
    }
  }
  Analyzer a;
  for (const std::string& file : tree_files(MC_LINT_FIXTURE_DIR)) {
    EXPECT_EQ(covered.count(file), 1u) << file << " has no table row";
    a.add_source(file, read_file(file));
  }
  const auto findings = a.run().findings;
  EXPECT_EQ(claims_of(findings), claims_of(fixture_rows));
  EXPECT_EQ(findings.size(), 22u);
}

// ---- fallible-discard ------------------------------------------------------

TEST(AnalyzeFixtures, FallibleDiscard) {
  const auto result = analyze_fixture("fallible_discard.cpp");
  EXPECT_EQ(lines_of(result, "fallible-discard"),
            (std::vector<int>{16, 17, 18, 19}));
  // Nothing else fires: the suppressed site and every sanctioned use stay
  // quiet, and no other rule triggers on this fixture.
  EXPECT_EQ(result.findings.size(), 4u);
}

TEST(AnalyzeIndex, CrossFileDiscard) {
  Analyzer a;
  a.index_source("api.hpp",
                 "[[nodiscard]] Fallible<int> try_load();\n"
                 "MaybeFault try_flush();\n");
  a.add_source("caller.cpp",
               "void f() {\n"
               "  try_load();\n"
               "  try_flush();\n"
               "  Fallible<int> r = try_load();\n"
               "}\n");
  const auto result = a.run();
  EXPECT_EQ(lines_of(result, "fallible-discard"), (std::vector<int>{2, 3}));
  // The index recorded the return types and the [[nodiscard]] annotation.
  const auto& decls = a.index().decls();
  ASSERT_TRUE(decls.count("try_load") > 0);
  EXPECT_EQ(decls.at("try_load").return_type, "Fallible<int>");
  EXPECT_TRUE(decls.at("try_load").nodiscard);
  ASSERT_TRUE(decls.count("try_flush") > 0);
  EXPECT_EQ(decls.at("try_flush").return_type, "MaybeFault");
  EXPECT_FALSE(decls.at("try_flush").nodiscard);
}

// ---- lock-order ------------------------------------------------------------

TEST(AnalyzeFixtures, LockOrderAbba) {
  const auto result = analyze_fixture("lock_order_abba.cpp");
  EXPECT_EQ(lines_of(result, "lock-order"), (std::vector<int>{18, 23}));
  EXPECT_EQ(result.findings.size(), 2u);
  // Each message cross-references the opposite site.
  EXPECT_NE(result.findings[0].message.find("bad_second"), std::string::npos);
  EXPECT_NE(result.findings[1].message.find("bad_first"), std::string::npos);
}

TEST(AnalyzeFixtures, LockOrderServiceBlocking) {
  const auto result = analyze_fixture("lock_order_service.cpp");
  EXPECT_EQ(lines_of(result, "lock-order"), (std::vector<int>{20, 21}));
  EXPECT_EQ(result.findings.size(), 2u);
}

TEST(AnalyzeFixtures, LockOrderInlinesOneCallLevel) {
  // f holds `a_` and calls g, which acquires `b_`; h takes them in the
  // opposite order directly.  The inversion is only visible through the
  // one-level inline.
  Analyzer a;
  a.add_source("inline.cpp",
               "void g() {\n"
               "  std::scoped_lock lb(b_);\n"
               "}\n"
               "void f() {\n"
               "  std::scoped_lock la(a_);\n"
               "  g();\n"
               "}\n"
               "void h() {\n"
               "  std::scoped_lock lb(b_);\n"
               "  std::scoped_lock la(a_);\n"
               "}\n");
  const auto result = a.run();
  const auto lines = lines_of(result, "lock-order");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], 6);   // the call site in f carries the a_->b_ edge
  EXPECT_EQ(lines[1], 10);  // the direct b_->a_ acquisition in h
}

// ---- sim-determinism -------------------------------------------------------

TEST(AnalyzeFixtures, SimDeterminism) {
  const auto result = analyze_fixture("sim_determinism.cpp");
  EXPECT_EQ(lines_of(result, "sim-determinism"),
            (std::vector<int>{17, 18, 19, 28}));
  EXPECT_EQ(result.findings.size(), 4u);
}

TEST(AnalyzeFixtures, SimDeterminismIgnoresHostTimeTus) {
  // Same constructs, no simulated-time vocabulary: not our business.
  const auto result = analyze_fixture("sim_determinism_free.cpp");
  EXPECT_TRUE(result.findings.empty());
}

// ---- guest-taint -----------------------------------------------------------

TEST(AnalyzeFixtures, GuestTaint) {
  const auto result = analyze_fixture("guest_taint.cpp");
  EXPECT_EQ(lines_of(result, "guest-taint"),
            (std::vector<int>{9, 11, 13, 39}));
  EXPECT_EQ(result.findings.size(), 4u);
}

// ---- hotpath-copy ----------------------------------------------------------

TEST(AnalyzeFixtures, HotpathCopy) {
  const auto result = analyze_fixture("hotpath_copy.cpp");
  // Line 13 carries two findings: the owned `Bytes` declaration and the
  // allocating content_copy() call.  The suppressed dump site, the arena /
  // caller-scratch copies and the pairwise *assignment* stay quiet.
  EXPECT_EQ(lines_of(result, "hotpath-copy"), (std::vector<int>{13, 13, 32}));
  EXPECT_EQ(result.findings.size(), 3u);
}

TEST(AnalyzeFixtures, HotpathCopyIgnoresDispatchedAndColdTus) {
  // Same constructs in a TU that routes through the simd kernel: the
  // pairwise compare is the guarded scalar tail, not a bypass.
  Analyzer a;
  a.add_source("dispatched.cpp",
               "void tail(const unsigned char* a, const unsigned char* b,\n"
               "          int n, int j) {\n"
               "  adjust_rvas(a, 1, b, 2);\n"
               "  j = simd::mismatch(a, b, n, 0);\n"
               "  if (a[j] != b[j]) { consume(j); }\n"
               "}\n");
  // And without the hot-path vocabulary the rule is not our business.
  a.add_source("cold.cpp",
               "void f(const Item& item) {\n"
               "  Bytes flat = item.content_copy();\n"
               "  consume(flat);\n"
               "}\n");
  const auto result = a.run();
  EXPECT_TRUE(lines_of(result, "hotpath-copy").empty());
}

// ---- watch-bypass ----------------------------------------------------------

TEST(AnalyzeFixtures, WatchBypass) {
  const auto result = analyze_fixture("watch_bypass.cpp");
  // The version sweep and the raw counter poll fire; the suppressed debug
  // probe, the WriteWatch query and the bare identifier stay quiet.
  EXPECT_EQ(lines_of(result, "watch-bypass"), (std::vector<int>{10, 18}));
  EXPECT_EQ(result.findings.size(), 2u);
}

TEST(AnalyzeFixtures, WatchBypassSanctionedTus) {
  // The facility and its producer legitimately touch the raw stamps: any
  // path mentioning write_watch or phys_mem is exempt wholesale.
  const std::string body = read_file(fixture("watch_bypass.cpp"));
  for (const char* name : {"src/vmm/write_watch.cpp", "src/vmm/phys_mem.cpp",
                           "vmm/write_watch_extra.hpp"}) {
    Analyzer a;
    a.add_source(name, body);
    EXPECT_TRUE(lines_of(a.run(), "watch-bypass").empty()) << name;
  }
}

// ---- Options ---------------------------------------------------------------

TEST(AnalyzeOptionsTest, DisabledRuleIsSkipped) {
  AnalyzeOptions opts;
  opts.disabled.insert("guest-taint");
  const auto result = analyze_fixture("guest_taint.cpp", opts);
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeOptionsTest, AllowPathDropsMatchingFiles) {
  AnalyzeOptions opts;
  opts.allow_paths.emplace_back("guest-taint", "fixtures_analyze");
  const auto result = analyze_fixture("guest_taint.cpp", opts);
  EXPECT_TRUE(result.findings.empty());
  // A non-matching substring changes nothing.
  AnalyzeOptions miss;
  miss.allow_paths.emplace_back("guest-taint", "no/such/dir");
  EXPECT_EQ(analyze_fixture("guest_taint.cpp", miss).findings.size(), 4u);
}

// ---- SARIF -----------------------------------------------------------------

TEST(AnalyzeSarif, StructurallyValid) {
  const auto result = analyze_fixture("guest_taint.cpp");
  ASSERT_FALSE(result.findings.empty());
  const std::string sarif =
      mc::lint::to_sarif(result.findings, mc::lint::rule_ids());

  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"mc_analyze\""), std::string::npos);
  for (const std::string& rule : mc::lint::rule_ids()) {
    EXPECT_NE(sarif.find("{\"id\": \"" + rule + "\"}"), std::string::npos)
        << rule;
  }
  for (const Finding& f : result.findings) {
    EXPECT_NE(sarif.find("\"startLine\": " + std::to_string(f.line)),
              std::string::npos);
  }
  // Balanced structure and no raw control characters (the JSON must parse;
  // CI additionally validates with a real parser).
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '{'),
            std::count(sarif.begin(), sarif.end(), '}'));
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '['),
            std::count(sarif.begin(), sarif.end(), ']'));
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '"') % 2, 0);
}

TEST(AnalyzeSarif, EscapesMessageText) {
  const std::vector<Finding> findings = {
      {"dir/f.cpp", 3, "guest-taint", "quote \" backslash \\ tab \t done"}};
  const std::string sarif =
      mc::lint::to_sarif(findings, mc::lint::rule_ids());
  EXPECT_NE(sarif.find("quote \\\" backslash \\\\ tab \\t done"),
            std::string::npos);
  EXPECT_EQ(sarif.find('\t'), std::string::npos);
}

// ---- Error resilience ------------------------------------------------------

TEST(AnalyzeErrors, AnalyzerSurfacesRecordedErrors) {
  Analyzer a;
  a.add_error("gone.cpp: cannot read");
  a.add_source("ok.cpp", "void f() {}\n");
  const auto result = a.run();
  EXPECT_TRUE(result.findings.empty());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0], "gone.cpp: cannot read");
}

}  // namespace
