// Minimal leveled logging with compile-time-free runtime configuration.
//
// Every line carries the trace clock (obs::elapsed_seconds) and the obs
// thread id, so log output correlates 1:1 with span timestamps in a
// --trace export.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

namespace con::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

LogLevel& log_level();

void log(LogLevel level, std::string_view msg);

// printf-style convenience wrappers.
template <typename... Args>
void logf(LogLevel level, const char* fmt, Args... args) {
  // Passing a non-trivially-copyable object (std::string is the classic
  // accident) through C varargs is undefined behaviour that compiles
  // silently; reject it here. Pass std::string via .c_str().
  static_assert((std::is_trivially_copyable_v<Args> && ...),
                "logf: format arguments must be trivially copyable "
                "(pass std::string via .c_str())");
  if (level < log_level()) return;
  char buf[1024];
  const int needed = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (needed < 0) {
    log(level, "(logf: format error)");
    return;
  }
  std::size_t len = static_cast<std::size_t>(needed);
  if (len >= sizeof(buf)) {
    // Mark silent truncation: overwrite the tail with a UTF-8 ellipsis.
    buf[sizeof(buf) - 4] = '\xE2';
    buf[sizeof(buf) - 3] = '\x80';
    buf[sizeof(buf) - 2] = '\xA6';
    len = sizeof(buf) - 1;
  }
  log(level, std::string_view(buf, len));
}

template <typename... Args>
void log_info(const char* fmt, Args... args) {
  logf(LogLevel::kInfo, fmt, args...);
}
template <typename... Args>
void log_warn(const char* fmt, Args... args) {
  logf(LogLevel::kWarn, fmt, args...);
}

// Wall-clock stopwatch for coarse phase timing in examples and benches.
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace con::util
