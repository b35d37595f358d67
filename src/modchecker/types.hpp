// Shared value types for the ModChecker pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "modchecker/item.hpp"
#include "modchecker/rva_adjust.hpp"
#include "util/bytes.hpp"
#include "util/sim_clock.hpp"
#include "vmm/domain.hpp"

namespace mc::core {

/// Basic facts about one module in a guest's loader list.
struct ModuleInfo {
  std::string name;
  std::uint32_t base = 0;
  std::uint32_t size_of_image = 0;
  std::uint32_t entry_point = 0;
};

/// A whole module image acquired from one guest's memory, as a view:
/// borrowed spans over the guest's frames (the zero-copy Acquire path;
/// valid until the guest's next write, restore or destroy) or one span
/// over an owned buffer its holder keeps (the scan cache's copy).
struct ModuleImage {
  vmm::DomainId domain = 0;
  std::string name;
  std::uint32_t base = 0;
  vmi::GuestView view;  // SizeOfImage bytes, memory layout

  std::size_t size() const { return view.size(); }
};

/// A module decomposed into its integrity items (Algorithm 1 output).
/// `fixups` is the format plugin's absolute-fixup normalization policy —
/// the width/step/bias recipe Algorithm 2 needs to undo relocation on this
/// module's rva-sensitive items.  Defaults to the PE32 policy so existing
/// aggregate initializers keep their meaning.
struct ParsedModule {
  vmm::DomainId domain = 0;
  std::string name;
  std::uint32_t base = 0;
  std::vector<IntegrityItem> items;
  FixupPolicy fixups{};
};

/// Per-component simulated runtimes — the series of Figs. 7 & 8.
struct ComponentTimes {
  SimNanos searcher = 0;
  SimNanos parser = 0;
  SimNanos checker = 0;

  SimNanos total() const { return searcher + parser + checker; }

  ComponentTimes& operator+=(const ComponentTimes& o) {
    searcher += o.searcher;
    parser += o.parser;
    checker += o.checker;
    return *this;
  }
};

}  // namespace mc::core
