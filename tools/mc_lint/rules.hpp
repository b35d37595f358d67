// Internal rule entry points (analyzer.cpp drives them; tests go through
// Analyzer).  Each appends unsuppressed findings — the analyzer applies
// suppressions, allowlists, and ordering.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "index.hpp"
#include "source.hpp"
#include "token.hpp"

namespace mc::lint::rules {

/// Files exempt from adhoc-stats and sim-determinism (the telemetry
/// library itself).
bool telemetry_owner(const std::string& file);

/// The ten line rules, in catalog order (token rules, bounds, pipeline,
/// format, catch, adhoc-stats).
void line_rules(const ScannedSource& src, const std::vector<Token>& toks,
                const std::string& file, std::vector<Finding>& out);

void fallible_discard(const std::vector<Token>& toks, const FunctionIndex& idx,
                      const std::string& file, std::vector<Finding>& out);

void sim_determinism(const std::vector<Token>& toks, const std::string& file,
                     std::vector<Finding>& out);

void guest_taint(const std::vector<Token>& toks, const std::string& file,
                 std::vector<Finding>& out);

void hotpath_copy(const std::vector<Token>& toks, const std::string& file,
                  std::vector<Finding>& out);

void watch_bypass(const std::vector<Token>& toks, const std::string& file,
                  std::vector<Finding>& out);

/// Global rule: needs the complete index.  Emits findings only for files
/// in `report_files` (the analyzed set — indexed-only files are context).
void lock_order(const FunctionIndex& idx,
                const std::set<std::string>& report_files,
                std::vector<Finding>& out);

}  // namespace mc::lint::rules
