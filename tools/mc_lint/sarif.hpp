// SARIF 2.1.0 serialization of analysis results — the interchange format
// GitHub code scanning ingests.  One run, one driver ("mc_analyze"), the
// full rule catalog in tool.driver.rules, one result per finding with a
// physicalLocation (uri + startLine).
#pragma once

#include <string>
#include <vector>

#include "analyzer.hpp"

namespace mc::lint {

/// Serializes findings as a SARIF 2.1.0 log.  `rules` is the catalog to
/// declare in tool.driver.rules; every finding's rule must be present (the
/// result's ruleIndex points into this list).
std::string to_sarif(const std::vector<Finding>& findings,
                     const std::vector<std::string>& rules);

}  // namespace mc::lint
