// Internal rule entry points for the tier-2 engine (analyzer.cpp drives
// them; tests go through Analyzer).  Each appends unsuppressed findings —
// the analyzer applies suppressions, allowlists, and ordering.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "index.hpp"
#include "linter.hpp"
#include "source.hpp"
#include "token.hpp"

namespace mc::lint::rules {

/// Token-stream port of the ten tier-1 rules, in the tier-1 execution
/// order (token rules, bounds, pipeline, format, catch, adhoc-stats).
void legacy_port(const ScannedSource& src, const std::vector<Token>& toks,
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
