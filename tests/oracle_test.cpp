// The pool scan against the independent oracle of oracle.hpp.
//
// Seeded infected PE32 and ELF64 pools (t = 5-15) carry the patch shapes
// the delta fallback must get right; a fresh, a cached and a
// worker_threads = 4 pool scan must each agree with the oracle VM by VM
// (successes, comparisons, verdict).  So must every VM's check, its row of
// the same vote, sequential and with 4 workers; the infected VM's and a
// clean peer's check with a full sample; and a check whose peer list
// repeats a peer and names the subject.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "crypto/hasher.hpp"
#include "modchecker/incremental.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/searcher.hpp"
#include "oracle.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "vmi/session.hpp"

namespace {

using namespace mc;
using namespace mc::test;
using core::IntegrityItem;
using core::ParsedModule;
using vmm::DomainId;

// ---- the generator ---------------------------------------------------------

/// One seeded pool of either format with guest-memory writes.
struct Pool {
  std::unique_ptr<cloud::CloudEnvironment> pe;
  std::unique_ptr<cloud::LinuxEnvironment> elf;

  const vmm::Hypervisor& hypervisor() const {
    return pe ? pe->hypervisor() : elf->hypervisor();
  }
  const std::vector<DomainId>& vms() const {
    return pe ? pe->guests() : elf->guests();
  }
  void write(DomainId vm, std::uint32_t va, const Bytes& bytes) {
    guestos::GuestKernel& k = pe ? pe->kernel(vm) : elf->kernel(vm);
    k.address_space().write_virtual(va, ByteView(bytes));
  }
};

enum class Shape {
  kRandomBytes,
  kInWindow,
  kBeforeWindow,
  kTwoWindows,
  kBlindSpot,
  kBlindSpotIntoWindow,  // the same, ending three bytes into a window
  kTruncatedRedirect,  // ELF: an R_X86_64_32S store moved by 0x40
  kTruncatedNeighbour, // ELF: the code after a 32S store, so only its
                       // 4-byte alternate can resolve
};

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kRandomBytes:
      return "random bytes";
    case Shape::kInWindow:
      return "inside a window";
    case Shape::kBeforeWindow:
      return "before a window";
    case Shape::kTwoWindows:
      return "across two windows";
    case Shape::kBlindSpot:
      return "blind-spot word";
    case Shape::kBlindSpotIntoWindow:
      return "blind-spot word into a window";
    case Shape::kTruncatedRedirect:
      return "32S store redirected";
    case Shape::kTruncatedNeighbour:
      return "32S store neighbour";
  }
  return "?";
}

const IntegrityItem* text_item(const ParsedModule& m) {
  for (const IntegrityItem& item : m.items) {
    if (item.rva_sensitive && item.name == ".text") {
      return &item;
    }
  }
  return nullptr;
}

/// The first section whose bytes are compared raw.
const IntegrityItem* raw_section(const ParsedModule& m) {
  for (const IntegrityItem& item : m.items) {
    if (!item.rva_sensitive && item.kind == core::ItemKind::kSectionData &&
        item.content_size() > 0) {
      return &item;
    }
  }
  return nullptr;
}

/// Writes `shape` into `x`'s .text; false when the module has no place
/// for it.  `p` is a clean peer at another base; `windows` are the
/// windows the oracle's Algorithm 2 rewrote between X and P.
bool apply(Pool& pool, Shape shape, const ParsedModule& x,
           const ParsedModule& p, const std::vector<std::size_t>& windows,
           Xoshiro256& rng) {
  const IntegrityItem* text = text_item(x);
  if (text == nullptr) {
    return false;
  }
  const Bytes clean = content(*text);
  const std::size_t n = clean.size();
  const std::uint32_t w = x.fixups.width;
  const std::uint32_t at = x.base + text->rva;
  Bytes bytes;
  std::size_t lo = 0;
  const auto flip = [&](std::size_t from, std::size_t to) {
    lo = from;
    bytes.assign(clean.begin() + static_cast<std::ptrdiff_t>(from),
                 clean.begin() + static_cast<std::ptrdiff_t>(to));
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(b ^ (1 + rng.below(255)));
    }
  };
  switch (shape) {
    case Shape::kRandomBytes: {
      const std::size_t len = 1 + rng.below(16);
      const std::size_t from = rng.below(n - len);
      flip(from, from + len);
      break;
    }
    case Shape::kInWindow: {
      if (windows.empty()) {
        return false;
      }
      const std::size_t s = windows[rng.below(windows.size())];
      const std::size_t from = s + rng.below(w);
      flip(from, std::min(n, from + 1 + rng.below(s + w - from)));
      break;
    }
    case Shape::kBeforeWindow: {
      if (windows.size() < 2) {
        return false;
      }
      const std::size_t s = windows[1 + rng.below(windows.size() - 1)];
      const std::size_t before = 1 + rng.below(3);
      flip(s - before, s - before + 1 + rng.below(before));
      break;
    }
    case Shape::kTwoWindows: {
      if (windows.size() < 2) {
        return false;
      }
      const std::size_t k = rng.below(windows.size() - 1);
      flip(windows[k] + rng.below(w),
           std::min(n, windows[k + 1] + 1 + rng.below(w)));
      break;
    }
    case Shape::kBlindSpot: {
      // c + (base_X - base_P) at a word clear of every window: X then
      // matches P (and any peer at P's base) and nobody else.
      std::size_t q = n;
      std::size_t prev_end = 0;
      for (const std::size_t s : windows) {
        if (s >= prev_end + w + 8) {
          q = prev_end + 4;
          break;
        }
        prev_end = s + w;
      }
      if (q + w > n) {
        return false;
      }
      lo = q;
      bytes.assign(clean.begin() + static_cast<std::ptrdiff_t>(q),
                   clean.begin() + static_cast<std::ptrdiff_t>(q + w));
      const std::uint64_t delta = std::uint64_t{x.base} - p.base;
      write_le(bytes, 0, w, read_le(bytes, 0, w) + delta);
      break;
    }
    case Shape::kBlindSpotIntoWindow: {
      // P's word + (base_X - base_P), ending three bytes into a window:
      // Algorithm 2 resolves it against P and then stands inside that
      // window, past its first differing byte, while the window's last
      // bytes may still differ between X and P.  The run is not back in
      // step there.
      const IntegrityItem* peer_text = text_item(p);
      if (peer_text == nullptr || peer_text->content_size() != n) {
        return false;
      }
      std::optional<std::size_t> q;
      std::size_t prev_end = 0;
      for (const std::size_t s : windows) {
        if (s + 3 >= prev_end + w) {
          q = s + 3 - w;
          break;
        }
        prev_end = s + w;
      }
      if (!q) {
        return false;
      }
      lo = *q;
      const Bytes peer = content(*peer_text);
      bytes.assign(peer.begin() + static_cast<std::ptrdiff_t>(lo),
                   peer.begin() + static_cast<std::ptrdiff_t>(lo + w));
      const std::uint64_t delta = std::uint64_t{x.base} - p.base;
      write_le(bytes, 0, w, read_le(bytes, 0, w) + delta);
      break;
    }
    case Shape::kTruncatedRedirect:
    case Shape::kTruncatedNeighbour: {
      // An R_X86_64_32S store: its 8-byte window's upper half is code,
      // which no other copy relocates (it is the same bytes everywhere
      // outside the low dword).
      std::optional<std::size_t> slot;
      for (const std::size_t s : windows) {
        if (w == 8 && s + 8 <= n) {
          const std::uint64_t v = read_le(clean, s, 8);
          if ((v >> 32) != 0xFFFFFFFFu) {
            slot = s;
            break;
          }
        }
      }
      if (!slot) {
        return false;
      }
      if (shape == Shape::kTruncatedRedirect) {
        lo = *slot;
        bytes.assign(clean.begin() + static_cast<std::ptrdiff_t>(lo),
                     clean.begin() + static_cast<std::ptrdiff_t>(lo + 4));
        write_le(bytes, 0, 4, read_le(bytes, 0, 4) + 0x40);
      } else {
        flip(*slot + 4 + rng.below(4), *slot + 8);
      }
      break;
    }
  }
  pool.write(x.domain, at + static_cast<std::uint32_t>(lo), bytes);
  return true;
}

void expect_same(const core::PoolScanReport& report,
                 const std::vector<OracleVerdict>& want, const char* scan,
                 const std::string& what) {
  ASSERT_EQ(report.verdicts.size(), want.size()) << scan << " " << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const core::PoolVmVerdict& v = report.verdicts[i];
    EXPECT_EQ(v.successes, want[i].successes)
        << scan << " " << what << " vm #" << i;
    EXPECT_EQ(v.total, want[i].total) << scan << " " << what << " vm #" << i;
    EXPECT_EQ(v.clean, want[i].clean) << scan << " " << what << " vm #" << i;
  }
}

void expect_row(const core::CheckReport& report, const OracleVerdict& want,
                const char* check, const std::string& what) {
  EXPECT_EQ(report.successes, want.successes)
      << check << " " << what << " vm " << report.subject;
  EXPECT_EQ(report.total_comparisons, want.total)
      << check << " " << what << " vm " << report.subject;
  EXPECT_EQ(report.subject_clean, want.clean)
      << check << " " << what << " vm " << report.subject;
}

TEST(Oracle, PoolScansAgreeWithTheNaiveCheckerOnInfectedPools) {
  Xoshiro256 rng(4);
  const Shape shapes[] = {Shape::kRandomBytes, Shape::kInWindow,
                          Shape::kBeforeWindow, Shape::kTwoWindows,
                          Shape::kBlindSpot, Shape::kBlindSpotIntoWindow,
                          Shape::kTruncatedRedirect,
                          Shape::kTruncatedNeighbour};
  const std::vector<std::string> pe_modules = {"hal.dll", "http.sys",
                                               "ntfs.sys", "dummy.sys"};
  const std::vector<std::string> elf_modules = {"scsi_mod", "ext3",
                                                "nf_conntrack", "hello"};
  telemetry::MetricRegistry registry;
  std::size_t trials = 0;
  std::size_t flagged = 0;
  for (std::size_t trial = 0; trials < 40 && trial < 200; ++trial) {
    const Shape shape = shapes[trial % std::size(shapes)];
    // Each shape alternates between the formats from round to round.
    const bool elf = shape == Shape::kTruncatedRedirect ||
                     shape == Shape::kTruncatedNeighbour ||
                     (trial / std::size(shapes)) % 2 == 1;
    const std::size_t t = 5 + rng.below(11);
    Pool pool;
    std::string module;
    if (elf) {
      cloud::LinuxCloudConfig cfg;
      cfg.guest_count = t;
      cfg.base_seed = 1000 + trial;
      pool.elf = std::make_unique<cloud::LinuxEnvironment>(cfg);
      module = elf_modules[rng.below(elf_modules.size())];
    } else {
      cloud::CloudConfig cfg;
      cfg.guest_count = t;
      cfg.base_seed = 1000 + trial;
      pool.pe = std::make_unique<cloud::CloudEnvironment>(cfg);
      module = pe_modules[rng.below(pe_modules.size())];
    }
    const std::vector<DomainId>& vms = pool.vms();
    const std::vector<DomainId> order(vms.begin(), vms.end());

    // X: the first VM (the reference every election starts from) a
    // quarter of the time, else a random one; P: a clean peer.
    const std::size_t xi = rng.below(4) == 0 ? 0 : 1 + rng.below(t - 1);
    const std::size_t pi = xi == 0 ? 1 : 0;
    const OracleCopy x = oracle_read(pool.hypervisor(), vms[xi], module);
    const OracleCopy p = oracle_read(pool.hypervisor(), vms[pi], module);
    ASSERT_TRUE(x.parsed && p.parsed);
    const IntegrityItem* xt = text_item(x.module);
    const IntegrityItem* pt = text_item(p.module);
    if (xt == nullptr || pt == nullptr || x.module.base == p.module.base) {
      continue;
    }
    std::vector<std::size_t> windows;
    Bytes xb = content(*xt);
    Bytes pb = content(*pt);
    oracle_algorithm2(xb, x.module.base, pb, p.module.base,
                      x.module.fixups.width, x.module.fixups.alt_width,
                      x.module.fixups.base_bias, &windows);

    // Warm a cache on the clean pool, so its scan after the writes is a
    // partial refresh over the canonical state it kept.
    core::IncrementalScanner cached(pool.hypervisor());
    cached.scan(module, order);

    const std::string what = std::string(shape_name(shape)) + " " + module +
                             " t=" + std::to_string(t) + " trial " +
                             std::to_string(trial);
    if (!apply(pool, shape, x.module, p.module, windows, rng)) {
      continue;
    }
    const IntegrityItem* raw = raw_section(p.module);
    if (shape == Shape::kBlindSpot && raw != nullptr && rng.below(2) == 0) {
      // P, the peer the word was crafted for, also differs in a raw
      // section: P stays eligible, and X now mismatches it there only.
      const std::uint32_t va =
          p.module.base + raw->rva +
          static_cast<std::uint32_t>(raw->content_size() / 2);
      const Bytes raw_bytes = content(*raw);
      pool.write(p.module.domain, va,
                 {static_cast<std::uint8_t>(
                     raw_bytes[raw->content_size() / 2] ^ 0x44)});
    } else if (rng.below(3) == 0) {
      // A second infected VM with a random patch of its own.
      const std::size_t yi = xi == t - 1 ? t - 2 : t - 1;
      const OracleCopy y = oracle_read(pool.hypervisor(), vms[yi], module);
      if (y.parsed && yi != pi) {
        apply(pool, Shape::kRandomBytes, y.module, p.module, {}, rng);
      }
    }
    ++trials;

    const std::vector<OracleVerdict> want =
        oracle_scan(pool.hypervisor(), module, order);
    for (const OracleVerdict& v : want) {
      flagged += v.clean ? 0 : 1;
    }
    core::ModCheckerConfig fresh_cfg;
    fresh_cfg.metrics = &registry;
    core::ModChecker fresh(pool.hypervisor(), fresh_cfg);
    expect_same(fresh.scan_pool(module, order), want, "fresh", what);
    expect_same(cached.scan(module, order), want, "cached", what);
    core::ModCheckerConfig parallel_cfg;
    parallel_cfg.worker_threads = 4;
    core::ModChecker parallel(pool.hypervisor(), parallel_cfg);
    expect_same(parallel.scan_pool(module, order), want, "parallel", what);

    // Each VM's check is its row of the same vote.  `order` names the
    // subject too, and the electorate drops it.
    for (std::size_t i = 0; i < t; ++i) {
      expect_row(fresh.check_module(vms[i], module, order), want[i], "check",
                 what);
      expect_row(parallel.check_module(vms[i], module, order), want[i],
                 "parallel check", what);
    }
    // A full sample is every peer in a seeded order.
    for (const std::size_t i : {xi, pi}) {
      expect_row(fresh.check_module_sampled(vms[i], module, t - 1, trial),
                 want[i], "sampled check", what);
    }
    std::vector<DomainId> noisy = {vms[pi], vms[xi]};
    noisy.insert(noisy.end(), order.begin(), order.end());
    noisy.push_back(vms[pi]);
    expect_row(fresh.check_module(vms[xi], module, noisy), want[xi],
               "repeated-peer check", what);
  }
  EXPECT_GE(trials, 30u);
  EXPECT_GE(flagged, trials);  // every trial infects at least one VM
  // The fresh scans' fallback pairs went through the delta plan.
  EXPECT_GT(registry.counter("canonical.delta_items").value(),
            registry.counter("pipeline.compare.fallback_items").value() / 2);
}

}  // namespace
