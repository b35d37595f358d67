#include "util/log.hpp"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <mutex>

namespace mc {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};
std::mutex g_sink_mutex;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info ";
    case LogLevel::kWarn:
      return "warn ";
    case LogLevel::kError:
      return "error";
  }
  return "?";
}

void vlog(LogLevel level, const char* fmt, std::va_list args) {
  if (static_cast<int>(level) < g_level.load(std::memory_order_relaxed)) {
    return;
  }
  char buf[1024];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  log_line(level, buf);
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void log_line(LogLevel level, std::string_view message) {
  if (static_cast<int>(level) < g_level.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "[%s] %.*s\n", level_tag(level),
               static_cast<int>(message.size()), message.data());
}

#define MC_DEFINE_LOG_FN(name, level)       \
  void name(const char* fmt, ...) {         \
    std::va_list args;                      \
    va_start(args, fmt);                    \
    vlog(level, fmt, args);                 \
    va_end(args);                           \
  }

MC_DEFINE_LOG_FN(log_debug, LogLevel::kDebug)
MC_DEFINE_LOG_FN(log_info, LogLevel::kInfo)

#undef MC_DEFINE_LOG_FN

}  // namespace mc
