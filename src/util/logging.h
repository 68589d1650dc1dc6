// Minimal leveled logging + fatal checks.  Logging is compiled in but off by
// default; protocol layers log through LAYER_LOG so traces can be enabled per
// run when debugging a protocol interleaving.

#ifndef ENSEMBLE_SRC_UTIL_LOGGING_H_
#define ENSEMBLE_SRC_UTIL_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace ensemble {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4 };

// Process-wide minimum level; messages below it are dropped.
LogLevel& GlobalLogLevel();

void LogMessage(LogLevel level, const char* file, int line, const std::string& msg);

// Stream-style log statement builder.
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogLine() { LogMessage(level_, file_, line_, out_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    out_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream out_;
};

[[noreturn]] void FatalCheckFailure(const char* file, int line, const char* expr,
                                    const std::string& msg);

// One kError line per distinct `what` for the process lifetime.  A platform
// fallback (io_uring refused, so mmsg carries the traffic) reports through
// this so "feature unavailable on this platform" surfaces exactly once
// instead of silently or per-call.
void LogUnsupportedOnce(const char* what);

}  // namespace ensemble

#define ENS_LOG(level)                                                  \
  if (::ensemble::LogLevel::level < ::ensemble::GlobalLogLevel()) {    \
  } else                                                                \
    ::ensemble::LogLine(::ensemble::LogLevel::level, __FILE__, __LINE__)

// Invariant check: always on (these guard protocol invariants, not debug
// assumptions; violating one means a protocol bug, and the process stops).
#define ENS_CHECK(expr)                                                     \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::ensemble::FatalCheckFailure(__FILE__, __LINE__, #expr, "");         \
    }                                                                       \
  } while (0)

#define ENS_CHECK_MSG(expr, msg)                                            \
  do {                                                                      \
    if (!(expr)) {                                                          \
      std::ostringstream ens_check_os;                                      \
      ens_check_os << msg;                                                  \
      ::ensemble::FatalCheckFailure(__FILE__, __LINE__, #expr,              \
                                    ens_check_os.str());                    \
    }                                                                       \
  } while (0)

#endif  // ENSEMBLE_SRC_UTIL_LOGGING_H_
