// Minimal leveled logger.
//
// A single process-wide sink guarded by a mutex (the only shared mutable
// state in mc_util; everything else is value-oriented per CP.2/CP.3).
// printf-style formatting, checked by the compiler via format attributes.
#pragma once

#include <string>
#include <string_view>

namespace mc {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the minimum level that will be emitted (default: kInfo).
void set_log_level(LogLevel level);

/// Emits one log line ("[level] message\n") to stderr if `level` passes the
/// threshold.  Thread-safe.
void log_line(LogLevel level, std::string_view message);

void log_debug(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void log_info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace mc
