// Tests for pool-wide module-list comparison, JSON report serialization,
// and RVA-adjustment cross-validation against relocation metadata.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/dkom_hide.hpp"
#include "attacks/inline_hook.hpp"
#include "cloud/environment.hpp"
#include "modchecker/audit.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/report_json.hpp"
#include "modchecker/rva_adjust.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"
#include "pe/reloc.hpp"
#include "json_validator.hpp"
#include "util/json.hpp"

namespace {

using namespace mc;
using namespace mc::core;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

// ---- module-list comparison --------------------------------------------------
TEST(ListCompare, CleanPoolIsConsistent) {
  auto env = make_env(5);
  ModChecker checker(env->hypervisor());
  const auto report = checker.compare_module_lists(env->guests());
  EXPECT_TRUE(report.consistent());
  EXPECT_EQ(report.modules_seen, env->config().load_order.size());
  EXPECT_GT(report.wall_time, 0u);
}

TEST(ListCompare, DkomHiddenModuleLocalized) {
  auto env = make_env(5);
  attacks::DkomHideAttack{}.apply(*env, env->guests()[2], "ntfs.sys");

  ModChecker checker(env->hypervisor());
  const auto report = checker.compare_module_lists(env->guests());
  ASSERT_EQ(report.discrepancies.size(), 1u);
  const auto& d = report.discrepancies[0];
  EXPECT_EQ(d.module_name, "ntfs.sys");
  ASSERT_EQ(d.missing_on.size(), 1u);
  EXPECT_EQ(d.missing_on[0], env->guests()[2]);
  EXPECT_EQ(d.present_on.size(), 4u);
}

TEST(ListCompare, ExtraModuleOnOneVmIsADiscrepancy) {
  auto env = make_env(4);
  env->loader(env->guests()[1])
      .load("inject.dll", env->golden().file("inject.dll"));

  ModChecker checker(env->hypervisor());
  const auto report = checker.compare_module_lists(env->guests());
  ASSERT_EQ(report.discrepancies.size(), 1u);
  EXPECT_EQ(report.discrepancies[0].module_name, "inject.dll");
  EXPECT_EQ(report.discrepancies[0].present_on,
            std::vector<vmm::DomainId>{env->guests()[1]});
}

// ---- JSON serialization ---------------------------------------------------------
TEST(Json, CheckReportSchema) {
  auto env = make_env(3);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[0], "hal.dll");
  ModChecker checker(env->hypervisor());
  const auto report = checker.check_module(env->guests()[0], "hal.dll");

  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"module\":\"hal.dll\""), std::string::npos);
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(json.find("\"flagged_items\":[\".text\"]"), std::string::npos);
  EXPECT_NE(json.find("\"digest_subject\":\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Json, PoolAndAuditSchemas) {
  auto env = make_env(3);
  ModChecker checker(env->hypervisor());
  const std::string pool_json =
      to_json(checker.scan_pool("hal.dll", env->guests()));
  EXPECT_NE(pool_json.find("\"verdicts\":[{\"vm\":1,\"clean\":true"),
            std::string::npos);

  const auto audit =
      audit_modules(env->hypervisor(), {"hal.dll"}, env->guests());
  const std::string audit_json = to_json(audit);
  EXPECT_NE(audit_json.find("\"findings\":[]"), std::string::npos);
  EXPECT_NE(audit_json.find("\"total_wall_ns\":"), std::string::npos);
}

TEST(Json, EscapingControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, EscaperKeepsUtf8AndEscapesEveryOtherByte) {
  EXPECT_EQ(json_escape("a\rb\tc"), "a\\rb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
  const std::string printable = "hal.dll [.text] ~!@#$%^&*()_+{}|:<>?";
  EXPECT_EQ(json_escape(printable), printable);
  // Well-formed UTF-8 (an em dash, U+10FFFF) passes through unchanged.
  EXPECT_EQ(json_escape("a\xE2\x80\x94" "b"), "a\xE2\x80\x94" "b");
  EXPECT_EQ(json_escape("\xF4\x8F\xBF\xBF"), "\xF4\x8F\xBF\xBF");
  // Each byte of an ill-formed sequence is escaped on its own: a stray
  // continuation byte, an overlong form, a surrogate, a truncated
  // sequence, and a lead byte above U+10FFFF.
  EXPECT_EQ(json_escape("\x80"), "\\u0080");
  EXPECT_EQ(json_escape("\xC0\xAF"), "\\u00c0\\u00af");
  EXPECT_EQ(json_escape("\xED\xA0\x80"), "\\u00ed\\u00a0\\u0080");
  EXPECT_EQ(json_escape("\xE2\x80"), "\\u00e2\\u0080");
  EXPECT_EQ(json_escape("\xF5\x80\x80\x80x"),
            "\\u00f5\\u0080\\u0080\\u0080x");
}

TEST(Json, GuestControlledItemNameStaysValidJson) {
  // A guest can rename a section to any bytes; the flagged item name must
  // still serialize as valid JSON (no raw control or high bytes).
  CheckReport report;
  report.module_name = "hal.dll";
  report.flagged_items = {"\xff\x01.rdata"};
  const std::string json = to_json(report);
  for (const char c : json) {
    const auto byte = static_cast<unsigned char>(c);
    EXPECT_TRUE(byte >= 0x20 && byte < 0x80) << "raw byte " << int{byte};
  }
  EXPECT_NE(json.find("\"\\u00ff\\u0001.rdata\""), std::string::npos);
  EXPECT_TRUE(testutil::is_valid_json(json)) << json;
}

// ---- Algorithm 2 cross-validation against relocation metadata ---------------------
// For clean module pairs, the metadata-free diff recovery must produce
// byte-for-byte the same normalized .text as subtracting the base using
// the image's own .reloc records — two independent implementations
// agreeing on every module in the catalog.
TEST(Json, WriterBuildsCompactNestedDocuments) {
  JsonWriter json;
  json.begin_object()
      .field("name", "a\"b\n")
      .field("count", std::uint64_t{3})
      .field("negative", -2)
      .field("ratio", 0.25)
      .field("ok", true)
      .begin_array("rows");
  for (int i = 0; i < 2; ++i) {
    json.begin_object().field("i", i).end_object();
  }
  json.end_array().begin_array("empty").end_array().end_object();
  EXPECT_EQ(json.str(),
            "{\"name\":\"a\\\"b\\n\",\"count\":3,\"negative\":-2,"
            "\"ratio\":0.25,\"ok\":true,\"rows\":[{\"i\":0},{\"i\":1}],"
            "\"empty\":[]}");
  EXPECT_TRUE(testutil::is_valid_json(json.str())) << json.str();
}

TEST(RvaCrossValidation, DiffRecoveryMatchesRelocMetadata) {
  auto env = make_env(2);
  for (const auto& module : env->config().load_order) {
    const auto* m0 = env->loader(env->guests()[0]).find(module);
    const auto* m1 = env->loader(env->guests()[1]).find(module);
    ASSERT_NE(m0, nullptr);
    ASSERT_NE(m1, nullptr);

    // In-memory .text from both VMs.
    auto read_text = [&](vmm::DomainId vm, const guestos::LoadedModule& m,
                         std::uint32_t* rva_out, std::uint32_t* len_out) {
      Bytes image(m.size_of_image, 0);
      env->kernel(vm).address_space().read_virtual(m.base, image);
      const pe::ParsedImage parsed{ByteView(image)};
      const auto* text = parsed.find_section(".text");
      *rva_out = text->VirtualAddress;
      *len_out = text->VirtualSize;
      return slice(image, text->VirtualAddress, text->VirtualSize);
    };
    std::uint32_t text_rva = 0;
    std::uint32_t text_len = 0;
    Bytes a = read_text(env->guests()[0], *m0, &text_rva, &text_len);
    Bytes b = read_text(env->guests()[1], *m1, &text_rva, &text_len);

    // Path 1: Algorithm 2 (metadata-free).
    Bytes a1 = a;
    Bytes b1 = b;
    const auto adj = adjust_rvas(a1, m0->base, b1, m1->base);
    ASSERT_EQ(adj.unresolved_diffs, 0u) << module;
    ASSERT_EQ(a1, b1) << module;

    // Path 2: subtract each VM's base at the .reloc-recorded fixups that
    // fall inside .text.
    const Bytes mapped = pe::map_image(env->golden().file(module));
    const pe::ParsedImage parsed{ByteView(mapped)};
    const auto& dir =
        parsed.optional_header().DataDirectories[pe::kDirBaseReloc];
    const auto fixups = pe::parse_base_relocations(
        slice(mapped, dir.VirtualAddress, dir.Size));
    Bytes a2 = a;
    for (const auto rva : fixups) {
      if (rva >= text_rva && rva + 4 <= text_rva + text_len) {
        store_le32(a2, rva - text_rva, load_le32(a2, rva - text_rva) -
                                           m0->base);
      }
    }
    EXPECT_EQ(a1, a2) << module
                      << ": Algorithm 2 disagrees with reloc metadata";
  }
}

}  // namespace
