// Simulated-time cost model for introspection operations.
//
// Calibrated against the behaviour the paper reports for LibVMI 0.6 on Xen
// 4.1.2 (§V-C.1): memory must be accessed page by page ("an action that
// requires an iterative access of the memory until the whole module is
// copied"), which makes Module-Searcher the dominant component; parsing and
// hashing are host-CPU work and much cheaper per byte.
//
// Absolute values are order-of-magnitude realistic for that era (mapping a
// foreign frame through xc_map_foreign_range costs tens of microseconds);
// what the reproduction preserves is the *relative* structure, which is
// what Figs. 7-8 exhibit.
#pragma once

#include "util/sim_clock.hpp"

namespace mc::vmi {

struct VmiCostModel {
  /// One-time session attach (open handles, read domain info).
  SimNanos attach = sim_us(120);
  /// Scanning one physical frame during the KDBG-style debug-block search.
  SimNanos kdbg_scan_per_frame = sim_us(2);
  /// Full page-table walk (two guest-physical reads).
  SimNanos translate_walk = sim_us(3);
  /// V2P cache hit.
  SimNanos translate_cached = 150;  // ns
  /// Mapping one guest frame into the privileged VM.
  SimNanos page_map = sim_us(25);
  /// Extending an existing mapping by one physically-contiguous frame
  /// (xc_map_foreign_pages over a frame run amortizes the per-call setup;
  /// only the first frame of a run pays the full `page_map`).
  SimNanos page_map_batched = sim_us(4);
  /// Copying one byte out of a mapped frame.
  SimNanos copy_per_byte = 2;  // ns
  /// Fixed overhead per read call (API dispatch).
  SimNanos read_call = 400;  // ns
  /// Coalesce virtually-contiguous pages that translate to
  /// physically-contiguous frames into one mapping + one copy, charging
  /// `page_map_batched` per extra frame.  Off reproduces the paper's strict
  /// page-by-page access pattern (the A8 ablation sweeps this).
  bool coalesce_reads = true;
  /// Arming write-watch protection on one guest frame (the hypercall that
  /// flips an EPT/shadow permission bit, amortized over a batch).
  SimNanos watch_register_per_frame = sim_us(1);
  /// One O(1) dirty query against the hypervisor's log-dirty state (a
  /// bitmap/count peek, no guest memory touched).
  SimNanos watch_query = 500;  // ns
};

/// Cost model for host-side (Dom0) CPU work: parsing and hashing.  Used by
/// the modchecker components, kept here so all calibration lives together.
struct HostCostModel {
  /// Module-Parser: per byte of module image walked/extracted.
  SimNanos parse_per_byte = 1;  // ns
  /// Fixed per-module parse overhead.
  SimNanos parse_fixed = sim_us(15);
  /// Integrity-Checker: MD5 hashing per byte.
  SimNanos hash_per_byte = 4;  // ns
  /// Integrity-Checker: RVA-adjustment diff scan per byte (pairwise).
  SimNanos rva_scan_per_byte = 2;  // ns
  /// Fixed per-comparison overhead.
  SimNanos compare_fixed = sim_us(5);
  /// Fast-path pool scan: comparing two precomputed per-item digest vectors
  /// (a handful of 16-byte memcmps — no image data is touched).
  SimNanos digest_pair_fixed = 300;  // ns
};

}  // namespace mc::vmi
