// Differential suite for the staged-pipeline refactor: every entry point
// (check_module, check_module_sampled, scan_pool, compare_module_lists,
// IncrementalScanner::rescan) now drives the same CheckPipeline stages, and
// this suite proves the refactor changed *nothing observable*.
//
// Two oracles:
//   * a "legacy" reimplementation of the pre-refactor paper-faithful flow,
//     built directly from ModuleSearcher/ModuleParser/IntegrityChecker with
//     a fresh VMI session per VM (exactly what check_module did before the
//     stages existed) — check_module must be bit-identical to it;
//   * cross-entry-point consistency — the per-VM verdicts of scan_pool
//     must equal each VM's own check_module vote, a full-pool sample must
//     equal the unsampled check, the incremental scanner's first pass must
//     equal a fresh pool scan, and compare_module_lists must agree with a
//     direct Searcher walk.
//
// Attack corners reuse the paper's E1-E4 experiments (plus header tamper,
// which exercises the parse-failure path) so the equivalence holds where
// the control flow is gnarliest, not just on clean pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "attacks/dll_import_inject.hpp"
#include "attacks/header_tamper.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/stub_patch.hpp"
#include "cloud/environment.hpp"
#include "fallible_test_util.hpp"
#include "modchecker/incremental.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/report_json.hpp"
#include "modchecker/searcher.hpp"
#include "util/error.hpp"
#include "vmi/session.hpp"
#include "vmm/fault_injection.hpp"

namespace {

using namespace mc;
using namespace mc::core;
using mc::test::must;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

/// The paper's prototype configuration: sequential, fresh sessions, no
/// memo, no fast path — the mode the legacy oracle reproduces.
ModCheckerConfig faithful_config() {
  ModCheckerConfig cfg;
  cfg.paper_faithful = true;
  return cfg;
}

// ---- legacy oracle ------------------------------------------------------------

struct LegacyCopy {
  bool found = false;
  bool parse_failed = false;
  ParsedModule parsed;
};

// The pre-refactor extraction flow, spelled out with the raw components.
// mc-lint: allow(pipeline-bypass) — this IS the legacy oracle.
LegacyCopy legacy_grab(cloud::CloudEnvironment& env, vmm::DomainId vm,
                       const std::string& module,
                       const ModCheckerConfig& cfg) {
  LegacyCopy copy;
  SimClock searcher_clock;
  std::optional<ModuleImage> image;
  {
    vmi::VmiSession session(env.hypervisor(), vm, searcher_clock,
                            cfg.vmi_costs);
    ModuleSearcher searcher(session);  // mc-lint: allow(pipeline-bypass)
    image = must(searcher.try_extract_module(module));
  }
  if (!image) {
    return copy;
  }
  copy.found = true;
  SimClock parser_clock;
  parser_clock.set_slowdown(env.hypervisor().dom0_slowdown());
  ModuleParser parser(cfg.host_costs);  // mc-lint: allow(pipeline-bypass)
  try {
    copy.parsed = parser.parse(*image, parser_clock);
  } catch (const FormatError&) {
    copy.parse_failed = true;
  }
  return copy;
}

/// check_module exactly as the pre-refactor orchestrator ran it:
/// sequential, one comparison per peer, majority n > (t-1)/2.
CheckReport legacy_check(cloud::CloudEnvironment& env, vmm::DomainId subject,
                         const std::string& module,
                         const std::vector<vmm::DomainId>& others) {
  const ModCheckerConfig cfg = faithful_config();
  IntegrityChecker checker(cfg.algorithm, cfg.host_costs);

  CheckReport report;
  report.module_name = module;
  report.subject = subject;

  const LegacyCopy subject_copy = legacy_grab(env, subject, module, cfg);
  if (!subject_copy.found) {
    throw NotFoundError("legacy oracle: subject copy missing");
  }

  std::set<std::string> flagged;
  if (subject_copy.parse_failed) {
    flagged.insert(ModChecker::kUnparseableItem);
  }
  for (const vmm::DomainId vm : others) {
    if (vm == subject) {
      continue;
    }
    const LegacyCopy other = legacy_grab(env, vm, module, cfg);
    if (!other.found) {
      report.missing_on.push_back(vm);
      continue;
    }
    ++report.total_comparisons;
    if (subject_copy.parse_failed || other.parse_failed) {
      if (other.parse_failed) {
        flagged.insert(ModChecker::kUnparseableItem);
      }
      PairComparison cmp;
      cmp.other_domain = vm;
      cmp.all_match = false;
      report.comparisons.push_back(std::move(cmp));
      continue;
    }
    SimClock checker_clock;
    checker_clock.set_slowdown(env.hypervisor().dom0_slowdown());
    PairComparison cmp =
        checker.compare(subject_copy.parsed, other.parsed, checker_clock);
    if (cmp.all_match) {
      ++report.successes;
    } else {
      for (const auto& item : cmp.items) {
        if (!item.match) {
          flagged.insert(item.item_name);
        }
      }
    }
    report.comparisons.push_back(std::move(cmp));
  }
  report.flagged_items.assign(flagged.begin(), flagged.end());
  report.subject_clean = report.total_comparisons > 0 &&
                         2 * report.successes > report.total_comparisons;
  return report;
}

void expect_same_check(const CheckReport& a, const CheckReport& b) {
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.total_comparisons, b.total_comparisons);
  EXPECT_EQ(a.subject_clean, b.subject_clean);
  EXPECT_EQ(a.flagged_items, b.flagged_items);
  EXPECT_EQ(a.missing_on, b.missing_on);
  ASSERT_EQ(a.comparisons.size(), b.comparisons.size());
  for (std::size_t i = 0; i < a.comparisons.size(); ++i) {
    const auto& ca = a.comparisons[i];
    const auto& cb = b.comparisons[i];
    EXPECT_EQ(ca.other_domain, cb.other_domain);
    EXPECT_EQ(ca.all_match, cb.all_match);
    ASSERT_EQ(ca.items.size(), cb.items.size());
    for (std::size_t k = 0; k < ca.items.size(); ++k) {
      EXPECT_EQ(ca.items[k].item_name, cb.items[k].item_name);
      EXPECT_EQ(ca.items[k].match, cb.items[k].match);
      EXPECT_EQ(ca.items[k].digest_subject.hex(),
                cb.items[k].digest_subject.hex());
      EXPECT_EQ(ca.items[k].digest_other.hex(),
                cb.items[k].digest_other.hex());
    }
  }
}

void expect_check_matches_legacy(cloud::CloudEnvironment& env,
                                 const std::string& module) {
  ModChecker checker(env.hypervisor(), faithful_config());
  const auto pipeline_report =
      checker.check_module(env.guests()[0], module, env.guests());
  const auto legacy_report =
      legacy_check(env, env.guests()[0], module, env.guests());
  expect_same_check(pipeline_report, legacy_report);
}

// ---- check_module vs the legacy oracle ----------------------------------------

TEST(PipelineVsLegacy, CleanPool) {
  auto env = make_env(6);
  for (const std::string module : {"hal.dll", "ntfs.sys", "http.sys"}) {
    expect_check_matches_legacy(*env, module);
  }
}

TEST(PipelineVsLegacy, E1_OpcodeReplace) {
  auto env = make_env(6);
  attacks::OpcodeReplaceAttack{}.apply(*env, env->guests()[2], "hal.dll");
  expect_check_matches_legacy(*env, "hal.dll");
}

TEST(PipelineVsLegacy, E2_InlineHook) {
  auto env = make_env(7);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[4], "hal.dll");
  expect_check_matches_legacy(*env, "hal.dll");
}

TEST(PipelineVsLegacy, E3_StubPatch) {
  auto env = make_env(5);
  attacks::StubPatchAttack{}.apply(*env, env->guests()[1], "dummy.sys");
  expect_check_matches_legacy(*env, "dummy.sys");
}

TEST(PipelineVsLegacy, E4_DllImportInject) {
  auto env = make_env(5);
  attacks::DllImportInjectAttack{}.apply(*env, env->guests()[3], "dummy.sys");
  expect_check_matches_legacy(*env, "dummy.sys");
}

TEST(PipelineVsLegacy, InfectedSubjectParseFailure) {
  // Header tamper can corrupt the PE walk itself — the parse-failure
  // aggregation (kUnparseableItem, forced mismatches) must match too.
  auto env = make_env(6);
  attacks::HeaderTamperAttack{}.apply(*env, env->guests()[0], "ntfs.sys");
  expect_check_matches_legacy(*env, "ntfs.sys");
}

TEST(PipelineVsLegacy, SubjectMissingThrowsOnBothSides) {
  auto env = make_env(4);
  ModChecker checker(env->hypervisor(), faithful_config());
  EXPECT_THROW(checker.check_module(env->guests()[0], "nosuch.sys",
                                    env->guests()),
               NotFoundError);
  EXPECT_THROW(legacy_check(*env, env->guests()[0], "nosuch.sys",
                            env->guests()),
               NotFoundError);
}

// ---- cross-entry-point consistency --------------------------------------------

/// scan_pool gives every VM the subject role at once; its per-VM tallies
/// must equal what each VM's own check_module reports.
void expect_scan_matches_checks(cloud::CloudEnvironment& env,
                                const std::string& module,
                                const ModCheckerConfig& cfg) {
  ModChecker checker(env.hypervisor(), cfg);
  const auto scan = checker.scan_pool(module, env.guests());
  ASSERT_EQ(scan.verdicts.size(), env.guests().size());
  for (const auto& verdict : scan.verdicts) {
    if (verdict.total == 0) {
      continue;  // module missing on this VM — no check possible
    }
    const auto check = checker.check_module(verdict.vm, module, env.guests());
    EXPECT_EQ(verdict.successes, check.successes) << "vm " << verdict.vm;
    EXPECT_EQ(verdict.total, check.total_comparisons) << "vm " << verdict.vm;
    EXPECT_EQ(verdict.clean, check.subject_clean) << "vm " << verdict.vm;
  }
}

TEST(CrossEntryPoint, ScanPoolEqualsPerVmChecks_Faithful) {
  auto env = make_env(6);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[2], "hal.dll");
  expect_scan_matches_checks(*env, "hal.dll", faithful_config());
}

TEST(CrossEntryPoint, ScanPoolEqualsPerVmChecks_FastDefaults) {
  auto env = make_env(6);
  attacks::OpcodeReplaceAttack{}.apply(*env, env->guests()[4], "hal.dll");
  expect_scan_matches_checks(*env, "hal.dll", ModCheckerConfig{});
}

TEST(CrossEntryPoint, FullSampleEqualsUnsampledCheck) {
  auto env = make_env(8);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[3], "hal.dll");
  ModChecker checker(env->hypervisor(), faithful_config());
  // sample_size >= t-1 must degenerate to the full check, seed-independent.
  const auto full = checker.check_module(env->guests()[0], "hal.dll");
  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const auto sampled = checker.check_module_sampled(
        env->guests()[0], "hal.dll", env->guests().size(), seed);
    EXPECT_EQ(sampled.successes, full.successes);
    EXPECT_EQ(sampled.total_comparisons, full.total_comparisons);
    EXPECT_EQ(sampled.subject_clean, full.subject_clean);
    EXPECT_EQ(sampled.flagged_items, full.flagged_items);
  }
}

TEST(CrossEntryPoint, SampledDrawsComeFromTheOthersSet) {
  auto env = make_env(8);
  ModChecker checker(env->hypervisor(), faithful_config());
  const auto sampled =
      checker.check_module_sampled(env->guests()[0], "hal.dll", 3, 7);
  EXPECT_EQ(sampled.total_comparisons, 3u);
  for (const auto& cmp : sampled.comparisons) {
    EXPECT_NE(cmp.other_domain, env->guests()[0]);
  }
}

TEST(CrossEntryPoint, IncrementalFirstAndSecondPassEqualFreshScan) {
  auto env = make_env(6);
  attacks::StubPatchAttack{}.apply(*env, env->guests()[1], "dummy.sys");
  IncrementalScanner incremental(env->hypervisor(), faithful_config());
  ModChecker fresh(env->hypervisor(), faithful_config());
  for (int pass = 0; pass < 2; ++pass) {
    const auto a = incremental.scan("dummy.sys", env->guests());
    const auto b = fresh.scan_pool("dummy.sys", env->guests());
    ASSERT_EQ(a.verdicts.size(), b.verdicts.size()) << "pass " << pass;
    for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
      EXPECT_EQ(a.verdicts[i].vm, b.verdicts[i].vm);
      EXPECT_EQ(a.verdicts[i].successes, b.verdicts[i].successes);
      EXPECT_EQ(a.verdicts[i].total, b.verdicts[i].total);
      EXPECT_EQ(a.verdicts[i].clean, b.verdicts[i].clean);
    }
  }
  // Pass 2 must have come from the cache, through the same pipeline stages.
  EXPECT_GT(incremental.stats().cache_reuses, 0u);
}

TEST(CrossEntryPoint, CompareListsMatchesDirectSearcherWalk) {
  auto env = make_env(5);
  // Hide a module from one guest so a real discrepancy exists.
  env->loader(env->guests()[2]).unload("ndis.sys");

  ModChecker checker(env->hypervisor(), faithful_config());
  const auto report = checker.compare_module_lists(env->guests());

  // Direct walk with the raw searcher (what the entry point used to do).
  std::set<std::string> all_modules;
  std::map<std::string, std::set<vmm::DomainId>> presence;
  for (const vmm::DomainId vm : env->guests()) {
    SimClock clock;
    vmi::VmiSession session(env->hypervisor(), vm, clock,
                            ModCheckerConfig{}.vmi_costs);
    ModuleSearcher searcher(session);  // mc-lint: allow(pipeline-bypass)
    for (const auto& info : must(searcher.try_list_modules())) {
      all_modules.insert(info.name);
      presence[info.name].insert(vm);
    }
  }
  EXPECT_EQ(report.modules_seen, all_modules.size());
  std::vector<std::string> expected_discrepancies;
  for (const auto& [name, on] : presence) {
    if (on.size() != env->guests().size()) {
      expected_discrepancies.push_back(name);
    }
  }
  ASSERT_EQ(report.discrepancies.size(), expected_discrepancies.size());
  for (std::size_t i = 0; i < report.discrepancies.size(); ++i) {
    EXPECT_EQ(report.discrepancies[i].module_name, expected_discrepancies[i]);
    const auto& on = presence[expected_discrepancies[i]];
    EXPECT_EQ(report.discrepancies[i].present_on.size(), on.size());
    for (const vmm::DomainId vm : report.discrepancies[i].missing_on) {
      EXPECT_EQ(on.count(vm), 0u);
    }
  }
}

// ---- stage-level invariants ---------------------------------------------------

TEST(PipelineStages, AcquireAndParseMatchesLegacyGrab) {
  auto env = make_env(4);
  attacks::HeaderTamperAttack{}.apply(*env, env->guests()[1], "ntfs.sys");
  ModChecker checker(env->hypervisor(), faithful_config());
  CheckPipeline& pipeline = checker.pipeline();
  for (const vmm::DomainId vm : env->guests()) {
    const Extraction ex = pipeline.acquire_and_parse(vm, "ntfs.sys");
    const LegacyCopy copy = legacy_grab(*env, vm, "ntfs.sys",
                                        faithful_config());
    ASSERT_EQ(ex.found, copy.found) << "vm " << vm;
    ASSERT_EQ(ex.parse_failed, copy.parse_failed) << "vm " << vm;
    if (ex.found && !ex.parse_failed) {
      ASSERT_EQ(ex.parsed.items.size(), copy.parsed.items.size());
      for (std::size_t i = 0; i < ex.parsed.items.size(); ++i) {
        EXPECT_EQ(ex.parsed.items[i].name, copy.parsed.items[i].name);
        // Items borrow different memory on each side (guest frames, a
        // copy); compare content, not where it lives.
        EXPECT_EQ(ex.parsed.items[i].content_copy(),
                  copy.parsed.items[i].content_copy());
      }
    }
  }
}

TEST(PipelineStages, NormalizeStandsDownWhenDisabled) {
  auto env = make_env(3);
  ModChecker faithful(env->hypervisor(), faithful_config());
  EXPECT_FALSE(faithful.pipeline().normalize().enabled());
  ModChecker fast(env->hypervisor(), ModCheckerConfig{});
  EXPECT_TRUE(fast.pipeline().normalize().enabled());
}

// ---- fault-domain differential proof ------------------------------------------
//
// The fault refactor's zero-fault contract: on a pool where nothing
// faults, the retry policy, the injector's armed gate and the degraded-
// quorum bookkeeping must all be invisible — verdicts, simulated times
// and the serialized reports stay byte-identical whichever way the fault
// machinery is configured.

TEST(FaultDomainDifferential, ZeroFaultScanJsonIsByteIdentical) {
  auto env = make_env(6);
  attacks::InlineHookAttack{}.apply(*env, env->guests()[2], "hal.dll");

  ModCheckerConfig no_retry;  // fast defaults, but the pre-refactor shape:
  no_retry.retry.max_attempts = 1;  // one attempt, no backoff ever taken

  const std::string base = to_json(
      ModChecker(env->hypervisor()).scan_pool("hal.dll", env->guests()));
  const std::string single_attempt = to_json(
      ModChecker(env->hypervisor(), no_retry)
          .scan_pool("hal.dll", env->guests()));

  // Arm the injector with all-zero rates: the fast gate opens, the dice
  // roll on every read, nothing ever faults — and nothing may change.
  for (const vmm::DomainId vm : env->guests()) {
    env->hypervisor().fault_injector().arm(vm, vmm::FaultProfile{});
  }
  const std::string armed_zero = to_json(
      ModChecker(env->hypervisor()).scan_pool("hal.dll", env->guests()));
  env->hypervisor().fault_injector().disarm_all();

  EXPECT_EQ(base, single_attempt);
  EXPECT_EQ(base, armed_zero);
  EXPECT_EQ(base.find("\"faults\""), std::string::npos);
  EXPECT_EQ(base.find("\"quarantined\""), std::string::npos);
}

TEST(FaultDomainDifferential, ZeroFaultCheckJsonIsByteIdentical) {
  auto env = make_env(5);
  attacks::OpcodeReplaceAttack{}.apply(*env, env->guests()[3], "hal.dll");

  const std::string faithful_json =
      to_json(ModChecker(env->hypervisor(), faithful_config())
                  .check_module(env->guests()[0], "hal.dll"));

  for (const vmm::DomainId vm : env->guests()) {
    env->hypervisor().fault_injector().arm(vm, vmm::FaultProfile{});
  }
  const std::string armed_json =
      to_json(ModChecker(env->hypervisor(), faithful_config())
                  .check_module(env->guests()[0], "hal.dll"));
  env->hypervisor().fault_injector().disarm_all();

  EXPECT_EQ(faithful_json, armed_json);
  EXPECT_EQ(faithful_json.find("\"quorum_lost\""), std::string::npos);
}

TEST(PipelineStages, VoteMajorityRule) {
  EXPECT_FALSE(VoteStage::majority(0, 0));  // no evidence, no verdict
  EXPECT_TRUE(VoteStage::majority(1, 1));
  EXPECT_FALSE(VoteStage::majority(1, 2));  // tie is not a majority
  EXPECT_TRUE(VoteStage::majority(2, 3));
  EXPECT_FALSE(VoteStage::majority(2, 4));
  EXPECT_TRUE(VoteStage::majority(3, 4));
}

}  // namespace
