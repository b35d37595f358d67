// JSON serialization of check reports — the integration surface for
// SIEM/alerting pipelines a deployment would feed (the paper's alarms must
// land somewhere actionable).  Hand-rolled emitter: the schema is small
// and an external JSON dependency would be heavier than the code.
#pragma once

#include <string>

#include "modchecker/audit.hpp"
#include "modchecker/modchecker.hpp"

namespace mc::core {

/// {"code": "read-fault", "domain": ..., "va": ..., "pa": ...,
///  "attempt": ..., "stage": "acquire", "detail": "..."}
std::string to_json(const FaultRecord& fault);

/// {"module": ..., "subject": ..., "clean": ..., "successes": ...,
///  "flagged_items": [...], "missing_on": [...],
///  "times_ns": {"searcher": ..., ...}, "comparisons": [...]}
/// Degraded runs append "unavailable_on", "faults" and the quorum fields;
/// a fault-free report emits the historical schema byte-for-byte.
std::string to_json(const CheckReport& report);

/// {"module": ..., "verdicts": [{"vm": ..., "clean": ...}, ...],
///  "cpu_ns": {...}, "fastpath_pairs": ..., "fallback_pairs": ...}
/// Degraded runs append "quarantined" and "faults" arrays plus per-verdict
/// quorum fields; fault-free reports keep the historical schema
/// byte-for-byte.
std::string to_json(const PoolScanReport& report);

/// {"modules": [...], "findings": [...], "total_wall_ns": ...}
std::string to_json(const AuditReport& report);

/// `"cpu_ns":{"searcher":...,"parser":...,"checker":...}` — the single
/// renderer of component-time JSON.  Both to_json(PoolScanReport) and the
/// service layer's to_json(SweepReport) call this, so the two serializers
/// cannot drift apart (they used to hand-aggregate the same three fields
/// independently).
std::string cpu_ns_json(const ComponentTimes& times);

}  // namespace mc::core
