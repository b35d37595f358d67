#include "modchecker/forensics.hpp"

#include <algorithm>
#include <sstream>

#include "modchecker/rva_adjust.hpp"
#include "pe/strings.hpp"
#include "util/simd.hpp"
#include "x86/disasm.hpp"

namespace mc::core {

namespace {

const IntegrityItem* find_item(const ParsedModule& module,
                                   const std::string& name) {
  for (const auto& item : module.items) {
    if (item.name == name) {
      return &item;
    }
  }
  return nullptr;
}

std::vector<DiffRange> collect_ranges(ByteView a, ByteView b) {
  std::vector<DiffRange> ranges;
  const std::size_t common = std::min(a.size(), b.size());
  // Equal stretches dominate a real divergence, so skip them through the
  // word-compare dispatcher; only the (short) differing run is walked
  // byte-by-byte to find its end.
  std::size_t i = simd::mismatch(a.data(), b.data(), common, 0);
  while (i < common) {
    std::size_t j = i;
    while (j < common && a[j] != b[j]) {
      ++j;
    }
    ranges.push_back({static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(j - i)});
    i = simd::mismatch(a.data(), b.data(), common, j);
  }
  if (a.size() != b.size()) {
    ranges.push_back({static_cast<std::uint32_t>(common),
                      static_cast<std::uint32_t>(
                          std::max(a.size(), b.size()) - common)});
  }
  return ranges;
}

/// Starts a listing a little before `offset`, snapped to an instruction
/// boundary where possible (walk from the range start backwards is hard
/// without boundaries; we simply back off a fixed window).
std::string listing_around(ByteView code, std::uint32_t offset) {
  const std::uint32_t start = offset > 8 ? offset - 8 : 0;
  return x86::format_listing(code, start, 8);
}

}  // namespace

std::string to_string(DivergenceClass cls) {
  switch (cls) {
    case DivergenceClass::kNone:
      return "none";
    case DivergenceClass::kContentPatch:
      return "content-patch";
    case DivergenceClass::kCodeInjection:
      return "code-injection (opcode cave)";
    case DivergenceClass::kStructural:
      return "structural";
    case DivergenceClass::kHeaderField:
      return "header-field";
  }
  return "?";
}

ForensicReport analyze_divergence(const ParsedModule& subject,
                                  const ParsedModule& reference,
                                  const std::string& item_name) {
  ForensicReport report;
  report.module = subject.name;
  report.item = item_name;

  const IntegrityItem* sub = find_item(subject, item_name);
  const IntegrityItem* ref = find_item(reference, item_name);
  if (sub == nullptr || ref == nullptr) {
    report.classification = DivergenceClass::kStructural;
    return report;
  }

  // Forensics is a sanctioned materialization point: the report outlives
  // the scan, so the items' views get owned copies here.
  Bytes a = sub->content_copy();  // mc-lint: allow(hotpath-copy)
  Bytes b = ref->content_copy();  // mc-lint: allow(hotpath-copy)
  if (sub->rva_sensitive) {
    const RvaAdjustResult adj =
        adjust_rvas(a, subject.base, b, reference.base);
    report.rvas_adjusted = adj.adjusted;
  }

  report.ranges = collect_ranges(a, b);
  for (const auto& r : report.ranges) {
    report.differing_bytes += r.length;
  }
  if (report.ranges.empty()) {
    report.classification = DivergenceClass::kNone;
    return report;
  }
  if (a.size() != b.size()) {
    report.classification = DivergenceClass::kStructural;
  } else if (sub->kind != ItemKind::kSectionData) {
    report.classification = DivergenceClass::kHeaderField;
  } else {
    // Code injection signature: some differing range was all-zero in the
    // reference (a cave that got filled).
    bool cave_filled = false;
    for (const auto& r : report.ranges) {
      const ByteView ref_range = ByteView(b).subspan(r.offset, r.length);
      if (r.length >= 4 &&
          std::all_of(ref_range.begin(), ref_range.end(),
                      [](std::uint8_t v) { return v == 0; })) {
        cave_filled = true;
        break;
      }
    }
    report.classification = cave_filled ? DivergenceClass::kCodeInjection
                                        : DivergenceClass::kContentPatch;
  }

  if (sub->rva_sensitive && !report.ranges.empty()) {
    report.subject_listing = listing_around(a, report.ranges[0].offset);
    report.reference_listing = listing_around(b, report.ranges[0].offset);
  } else if (!report.ranges.empty()) {
    // Non-code divergence: show the nearest human-readable text.
    report.context_string = pe::string_near(a, report.ranges[0].offset);
  }
  return report;
}

std::vector<ForensicReport> analyze_all_flagged(const ParsedModule& subject,
                                                const ParsedModule& reference) {
  std::vector<ForensicReport> reports;
  // Union of item names from both sides, preserving subject order.
  std::vector<std::string> names;
  for (const auto& item : subject.items) {
    names.push_back(item.name);
  }
  for (const auto& item : reference.items) {
    if (std::find(names.begin(), names.end(), item.name) == names.end()) {
      names.push_back(item.name);
    }
  }
  for (const auto& name : names) {
    ForensicReport r = analyze_divergence(subject, reference, name);
    if (r.classification != DivergenceClass::kNone) {
      reports.push_back(std::move(r));
    }
  }
  return reports;
}

std::string format_forensic_report(const ForensicReport& report) {
  std::ostringstream os;
  os << "Forensic analysis: " << report.module << " / " << report.item
     << "\n";
  os << "  classification : " << to_string(report.classification) << "\n";
  os << "  differing bytes: " << report.differing_bytes << " in "
     << report.ranges.size() << " range(s)\n";
  if (report.rvas_adjusted != 0) {
    os << "  RVAs normalized: " << report.rvas_adjusted << "\n";
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(report.ranges.size(), 8);
       ++i) {
    const auto& r = report.ranges[i];
    os << "  range " << i << ": item offset 0x" << std::hex << r.offset
       << std::dec << ", " << r.length << " byte(s)\n";
  }
  if (!report.context_string.empty()) {
    os << "  nearby text    : \"" << report.context_string << "\"\n";
  }
  if (!report.subject_listing.empty()) {
    os << "  subject code around first difference:\n";
    std::istringstream sub(report.subject_listing);
    for (std::string line; std::getline(sub, line);) {
      os << "    " << line << "\n";
    }
    os << "  reference code at the same location:\n";
    std::istringstream ref(report.reference_listing);
    for (std::string line; std::getline(ref, line);) {
      os << "    " << line << "\n";
    }
  }
  return os.str();
}

}  // namespace mc::core
