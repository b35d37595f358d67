#include "modchecker/report_json.hpp"

#include <sstream>

#include "util/json.hpp"

namespace mc::core {

namespace {

std::string quoted(const std::string& s) {
  const std::string escaped = json_escape(s);
  std::string out;
  out.reserve(escaped.size() + 2);
  out.push_back('"');
  out.append(escaped);
  out.push_back('"');
  return out;
}

template <typename T, typename Fn>
std::string array_of(const std::vector<T>& items, Fn&& render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += render(items[i]);
  }
  return out + "]";
}

}  // namespace

std::string to_json(const FaultRecord& fault) {
  std::ostringstream os;
  os << "{\"code\":" << quoted(to_string(fault.code))
     << ",\"domain\":" << fault.domain << ",\"va\":" << fault.va
     << ",\"pa\":" << fault.pa << ",\"attempt\":" << fault.attempt
     << ",\"stage\":" << quoted(to_string(fault.stage))
     << ",\"detail\":" << quoted(fault.detail) << "}";
  return os.str();
}

std::string to_json(const CheckReport& report) {
  std::ostringstream os;
  os << "{\"module\":" << quoted(report.module_name)
     << ",\"subject\":" << report.subject
     << ",\"clean\":" << (report.subject_clean ? "true" : "false")
     << ",\"successes\":" << report.successes
     << ",\"total_comparisons\":" << report.total_comparisons
     << ",\"flagged_items\":"
     << array_of(report.flagged_items,
                 [](const std::string& s) { return quoted(s); })
     << ",\"missing_on\":"
     << array_of(report.missing_on,
                 [](vmm::DomainId id) { return std::to_string(id); })
     << ",\"times_ns\":{\"searcher\":" << report.cpu_times.searcher
     << ",\"parser\":" << report.cpu_times.parser
     << ",\"checker\":" << report.cpu_times.checker
     << ",\"wall\":" << report.wall_time << "}"
     << ",\"comparisons\":"
     << array_of(report.comparisons, [](const PairComparison& pair) {
          std::string items =
              array_of(pair.items, [](const ItemComparison& item) {
                return std::string("{\"item\":") + quoted(item.item_name) +
                       ",\"match\":" + (item.match ? "true" : "false") +
                       ",\"digest_subject\":\"" +
                       item.digest_subject.hex() + "\",\"digest_other\":\"" +
                       item.digest_other.hex() + "\"}";
              });
          return "{\"other\":" + std::to_string(pair.other_domain) +
                 ",\"all_match\":" + (pair.all_match ? "true" : "false") +
                 ",\"items\":" + items + "}";
        });
  // Fault-domain fields only appear on degraded runs, so a fault-free
  // report stays byte-identical to the historical schema (consumers diff
  // and hash these).
  const bool degraded = !report.faults.empty() ||
                        !report.unavailable_on.empty() ||
                        report.subject_unavailable || report.quorum_lost;
  if (degraded) {
    os << ",\"unavailable_on\":"
       << array_of(report.unavailable_on,
                   [](vmm::DomainId id) { return std::to_string(id); })
       << ",\"peers_total\":" << report.peers_total
       << ",\"peers_answered\":" << report.peers_answered
       << ",\"quorum_lost\":" << (report.quorum_lost ? "true" : "false")
       << ",\"subject_unavailable\":"
       << (report.subject_unavailable ? "true" : "false") << ",\"faults\":"
       << array_of(report.faults,
                   [](const FaultRecord& f) { return to_json(f); });
  }
  os << "}";
  return os.str();
}

std::string to_json(const PoolScanReport& report) {
  // Per-verdict quorum fields and the report-level quarantine/fault arrays
  // only appear on degraded runs — a clean scan's JSON is byte-identical
  // to the historical schema.
  const bool degraded = report.degraded();
  std::ostringstream os;
  os << "{\"module\":" << quoted(report.module_name) << ",\"verdicts\":"
     << array_of(report.verdicts,
                 [degraded](const PoolVmVerdict& v) {
                   std::string out =
                       "{\"vm\":" + std::to_string(v.vm) +
                       ",\"clean\":" + (v.clean ? "true" : "false") +
                       ",\"successes\":" + std::to_string(v.successes) +
                       ",\"total\":" + std::to_string(v.total);
                   if (degraded) {
                     out += ",\"peers_total\":" + std::to_string(v.peers_total) +
                            ",\"peers_answered\":" +
                            std::to_string(v.peers_answered) +
                            ",\"quarantined\":" +
                            (v.quarantined ? "true" : "false") +
                            ",\"quorum_lost\":" +
                            (v.quorum_lost ? "true" : "false");
                   }
                   return out + "}";
                 })
     << ",\"wall_ns\":" << report.wall_time << ',' << cpu_ns_json(report.cpu_times)
     << ",\"fastpath_pairs\":" << report.fastpath_pairs
     << ",\"fallback_pairs\":" << report.fallback_pairs;
  if (degraded) {
    os << ",\"quarantined\":"
       << array_of(report.quarantined,
                   [](vmm::DomainId id) { return std::to_string(id); })
       << ",\"faults\":"
       << array_of(report.faults,
                   [](const FaultRecord& f) { return to_json(f); });
  }
  // Telemetry snapshot only when the scan was asked to embed one
  // (emit_telemetry) — absent, the schema is byte-identical to the
  // pre-telemetry output.
  if (!report.telemetry_json.empty()) {
    os << ",\"telemetry\":" << report.telemetry_json;
  }
  os << "}";
  return os.str();
}

std::string cpu_ns_json(const ComponentTimes& times) {
  std::ostringstream os;
  os << "\"cpu_ns\":{\"searcher\":" << times.searcher
     << ",\"parser\":" << times.parser << ",\"checker\":" << times.checker
     << "}";
  return os.str();
}

std::string to_json(const AuditReport& report) {
  std::ostringstream os;
  os << "{\"modules\":"
     << array_of(report.modules,
                 [](const std::string& s) { return quoted(s); })
     << ",\"pool\":"
     << array_of(report.pool,
                 [](vmm::DomainId id) { return std::to_string(id); })
     << ",\"findings\":"
     << array_of(report.findings,
                 [](const AuditFinding& f) {
                   return "{\"module\":" + quoted(f.module) +
                          ",\"vm\":" + std::to_string(f.vm) +
                          ",\"successes\":" + std::to_string(f.successes) +
                          ",\"total\":" + std::to_string(f.total) + "}";
                 })
     << ",\"total_wall_ns\":" << report.total_wall << "}";
  return os.str();
}

}  // namespace mc::core
