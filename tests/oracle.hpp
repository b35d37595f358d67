// An independent oracle for the pool scan's verdicts.
//
// A deliberately naive O(t^2) checker written from the paper's Algorithm
// 1/2 text.  It reads every copy through the try_* VMI calls
// (ModuleSearcher) and takes the format plugins' item lists
// (ModuleParser), and shares nothing downstream of them with the
// checker: its own Algorithm 2, an MD5 of every item of every pair after
// it, (kind, name) pairing and the majority n > (t-1)/2.  In particular
// it uses nothing of canonical.*, checker.cpp, rva_adjust.cpp or
// item_content.*.  Shared by oracle_test, ownership_test and
// simd_equivalence_test.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/hasher.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/searcher.hpp"
#include "util/error.hpp"
#include "vmi/session.hpp"
#include "vmm/hypervisor.hpp"

namespace mc::test {

using core::IntegrityItem;
using core::ParsedModule;
using vmm::DomainId;

inline std::uint64_t read_le(const Bytes& b, std::size_t at,
                             std::uint32_t width) {
  std::uint64_t v = 0;
  for (std::uint32_t k = 0; k < width; ++k) {
    v |= std::uint64_t{b[at + k]} << (8 * k);
  }
  return v;
}

inline void write_le(Bytes& b, std::size_t at, std::uint32_t width,
                     std::uint64_t v) {
  for (std::uint32_t k = 0; k < width; ++k) {
    b[at + k] = static_cast<std::uint8_t>(v >> (8 * k));
  }
}

/// Algorithm 2 from the paper, widened the way the format says its loader
/// patches addresses (`width`, then `alt` bytes, each against `bias | base`).
/// Rewrites both buffers in place; `windows`, if given, receives the start
/// of every window it rewrote.
inline void oracle_algorithm2(Bytes& s1, std::uint32_t base1, Bytes& s2,
                              std::uint32_t base2, std::uint32_t width,
                              std::uint32_t alt, std::uint64_t bias,
                              std::vector<std::size_t>* windows = nullptr) {
  // Lines 1-9: the 1-based index of the first differing base byte.
  std::uint32_t offset = 0;
  for (std::uint32_t k = 0; k < 4 && offset == 0; ++k) {
    if (((base1 >> (8 * k)) & 0xFFu) != ((base2 >> (8 * k)) & 0xFFu)) {
      offset = k + 1;
    }
  }
  if (offset == 0) {
    return;  // same base: nothing is relocated differently
  }
  const std::size_t n = std::min(s1.size(), s2.size());
  const std::uint64_t b1 = bias | base1;
  const std::uint64_t b2 = bias | base2;
  std::size_t j = 0;
  while (j < n) {
    if (s1[j] == s2[j] || j + 1 < offset) {
      ++j;
      continue;
    }
    // Lines 13-22: the address starts offset - 1 bytes before the first
    // differing byte; equal RVAs on both sides mean a relocation.
    const std::size_t start = j - (offset - 1);
    std::uint32_t rewritten = 0;
    for (const std::uint32_t w : {width, alt}) {
      if (w == 0 || rewritten != 0 || start + w > n) {
        continue;
      }
      const std::uint64_t mask = w == 8 ? ~0ull : (1ull << (8 * w)) - 1;
      const std::uint64_t rva1 = (read_le(s1, start, w) - b1) & mask;
      const std::uint64_t rva2 = (read_le(s2, start, w) - b2) & mask;
      if (rva1 == rva2) {
        write_le(s1, start, w, rva1);
        write_le(s2, start, w, rva2);
        rewritten = w;
        if (windows != nullptr) {
          windows->push_back(start);
        }
      }
    }
    j = rewritten != 0 ? start + rewritten : j + 1;
  }
}

inline Bytes content(const IntegrityItem& item) { return item.content_copy(); }

/// Every item of `a` paired by (kind, name), first unused first, MD5'd on
/// both sides (after Algorithm 2 for rva-sensitive ones); all must agree
/// and nothing may be left over.
inline bool oracle_pair(const ParsedModule& a, const ParsedModule& b) {
  std::vector<bool> used(b.items.size(), false);
  for (const IntegrityItem& x : a.items) {
    std::size_t k = 0;
    while (k < b.items.size() &&
           (used[k] || b.items[k].kind != x.kind ||
            b.items[k].name != x.name)) {
      ++k;
    }
    if (k == b.items.size()) {
      return false;
    }
    used[k] = true;
    Bytes bx = content(x);
    Bytes by = content(b.items[k]);
    if (x.rva_sensitive) {
      oracle_algorithm2(bx, a.base, by, b.base, a.fixups.width,
                        a.fixups.alt_width, a.fixups.base_bias);
    }
    if (crypto::hash_bytes(crypto::HashAlgorithm::kMd5, bx) !=
        crypto::hash_bytes(crypto::HashAlgorithm::kMd5, by)) {
      return false;
    }
  }
  return std::all_of(used.begin(), used.end(), [](bool u) { return u; });
}

struct OracleCopy {
  bool found = false;
  bool parsed = false;
  ParsedModule module;
};

inline OracleCopy oracle_read(const vmm::Hypervisor& hv, DomainId vm,
                              const std::string& name) {
  OracleCopy out;
  SimClock clock;
  vmi::VmiSession session(hv, vm, clock);
  core::ModuleSearcher searcher(session);
  Fallible<std::optional<core::ModuleImage>> image =
      searcher.try_extract_module(name);
  EXPECT_TRUE(image.ok()) << "vm " << vm;
  if (!image.ok() || !image.value()) {
    return out;
  }
  out.found = true;
  try {
    out.module = core::ModuleParser().parse(*image.value(), clock);
    out.parsed = true;
  } catch (const FormatError&) {
    out.parsed = false;  // an unparseable copy: found, never matches
  }
  return out;
}

struct OracleVerdict {
  std::size_t successes = 0;
  std::size_t total = 0;
  bool clean = false;
};

inline std::vector<OracleVerdict> oracle_scan(
    const vmm::Hypervisor& hv, const std::string& name,
    const std::vector<DomainId>& vms) {
  std::vector<OracleCopy> copies;
  for (const DomainId vm : vms) {
    copies.push_back(oracle_read(hv, vm, name));
  }
  std::vector<OracleVerdict> out(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i) {
    for (std::size_t j = i + 1; j < vms.size(); ++j) {
      if (!copies[i].found || !copies[j].found) {
        continue;
      }
      ++out[i].total;
      ++out[j].total;
      if (copies[i].parsed && copies[j].parsed &&
          oracle_pair(copies[i].module, copies[j].module)) {
        ++out[i].successes;
        ++out[j].successes;
      }
    }
  }
  for (OracleVerdict& v : out) {
    v.clean = v.total > 0 && 2 * v.successes > v.total;  // n > (t-1)/2
  }
  return out;
}

}  // namespace mc::test
