#include "sarif.hpp"

#include <map>

#include "util/json.hpp"

namespace mc::lint {

namespace {

/// GitHub wants forward slashes and no leading "./" in artifact URIs.
std::string artifact_uri(const std::string& path) {
  std::string uri = path;
  for (char& c : uri) {
    if (c == '\\') {
      c = '/';
    }
  }
  while (uri.rfind("./", 0) == 0) {
    uri.erase(0, 2);
  }
  return uri;
}

}  // namespace

std::string to_sarif(const std::vector<Finding>& findings,
                     const std::vector<std::string>& rules) {
  std::map<std::string, std::size_t> rule_index;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    rule_index[rules[i]] = i;
  }

  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"mc_analyze\",\n"
      "          \"informationUri\": \"tools/mc_lint/RULES.md\",\n"
      "          \"rules\": [\n";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += "            {\"id\": \"" + json_escape(rules[i]) + "\"}";
    out += i + 1 < rules.size() ? ",\n" : "\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    const auto it = rule_index.find(f.rule);
    out += "        {\n";
    out += "          \"ruleId\": \"" + json_escape(f.rule) + "\",\n";
    if (it != rule_index.end()) {
      out += "          \"ruleIndex\": " + std::to_string(it->second) + ",\n";
    }
    out += "          \"level\": \"warning\",\n";
    out += "          \"message\": {\"text\": \"" + json_escape(f.message) +
           "\"},\n";
    out +=
        "          \"locations\": [\n"
        "            {\n"
        "              \"physicalLocation\": {\n"
        "                \"artifactLocation\": {\"uri\": \"" +
        json_escape(artifact_uri(f.file)) +
        "\"},\n"
        "                \"region\": {\"startLine\": " +
        std::to_string(f.line) +
        "}\n"
        "              }\n"
        "            }\n"
        "          ]\n";
    out += "        }";
    out += i + 1 < findings.size() ? ",\n" : "\n";
  }
  out +=
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace mc::lint
