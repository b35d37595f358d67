// File-layout to memory-layout image mapping.
//
// A PE file on disk packs section raw data at file-aligned offsets; the
// loader maps headers and sections at their (section-aligned) virtual
// addresses.  This module performs that expansion — the first step of the
// loading process that guestos::ModuleLoader simulates.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace mc::pe {

/// Expands a PE file image into its memory layout (SizeOfImage bytes,
/// headers at 0, each section's raw data copied to its VirtualAddress,
/// zero fill elsewhere).
Bytes map_image(ByteView file);

}  // namespace mc::pe
