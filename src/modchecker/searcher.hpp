// Module-Searcher — the only ModChecker component that touches guest
// memory (paper §III-B.1, §IV-A).
//
// Obtains PsLoadedModuleList via the introspection session, traverses the
// doubly linked LDR_DATA_TABLE_ENTRY list by FLINK, matches BaseDllName
// case-insensitively, and acquires the whole module image (DllBase,
// SizeOfImage) from guest memory — page by page, which is why this
// component dominates runtime (§V-C.1).  The image borrows the guest's
// frames; the simulated charge is the paper's page-by-page copy.
//
// Every entry point returns guest faults as data: a fault the session
// reports, an unrecognized guest build, or a loader list whose FLINKs loop
// comes back as a FaultRecord rather than unwinding the caller.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "guestos/profile.hpp"
#include "modchecker/types.hpp"
#include "util/fault.hpp"
#include "vmi/session.hpp"

namespace mc::core {

/// One walk of the loader list that answers try_find_module for any name
/// (the scan cache's loader snapshot): every entry's name and facts, or
/// the fault reading its facts, in list order, and how the walk ended.
struct LoaderWalk {
  struct Entry {
    ModuleInfo info;  // the name, and the facts unless facts_fault
    MaybeFault facts_fault;
  };
  std::vector<Entry> entries;
  /// The fault that ended the walk before it returned to the list head:
  /// a profile, head, name or FLINK read, or a FLINK cycle.
  MaybeFault end_fault;

  /// Exactly what try_find_module(module_name) returns on the walked
  /// guest state: the first entry whose name matches (or the fault reading
  /// its facts), else the walk's end fault, else not loaded.
  Fallible<std::optional<ModuleInfo>> find(
      const std::string& module_name) const;

  /// True when no read of the walk faulted.
  bool clean() const;
};

class ModuleSearcher {
 public:
  explicit ModuleSearcher(vmi::VmiSession& session) : session_(&session) {}

  /// Walks the loader list and returns every module's basic facts.
  Fallible<std::vector<ModuleInfo>> try_list_modules();

  /// Finds `module_name` in the list; an engaged optional means found, a
  /// disengaged one means the walk completed and the module is not loaded
  /// (which is an answer, not a fault).
  Fallible<std::optional<ModuleInfo>> try_find_module(
      const std::string& module_name);

  /// Walks the whole list once, keeping every read's outcome, so that
  /// LoaderWalk::find can answer for any module name.
  LoaderWalk walk_loader();

  /// Finds the module and acquires its entire image from guest memory as
  /// borrowed spans over the guest's frames (no host copy).  The image is
  /// valid until the guest's next write, snapshot restore or destroy; a
  /// caller that keeps it longer materializes it first.
  Fallible<std::optional<ModuleImage>> try_extract_module(
      const std::string& module_name);

  /// Acquires the image of a module already found in the list (`info`
  /// from a walk), without walking again; borrowed like
  /// try_extract_module's.
  Fallible<ModuleImage> try_extract(const ModuleInfo& info);

 private:
  /// Resolves the guest's profile or reports why it cannot (debug-block
  /// fault or unrecognized build).
  Fallible<const guestos::GuestProfile*> try_profile();

  vmi::VmiSession* session_;
};

}  // namespace mc::core
