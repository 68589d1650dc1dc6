#include "src/util/logging.h"

#include <cstring>
#include <mutex>
#include <set>

namespace ensemble {

LogLevel& GlobalLogLevel() {
  static LogLevel level = LogLevel::kWarn;
  return level;
}

namespace {
const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "T";
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarn:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}
}  // namespace

void LogMessage(LogLevel level, const char* file, int line, const std::string& msg) {
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), Basename(file), line,
               msg.c_str());
}

void LogUnsupportedOnce(const char* what) {
  static std::mutex mu;
  static std::set<std::string> seen;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!seen.insert(what).second) {
      return;
    }
  }
  LogMessage(LogLevel::kError, "once", 0,
             std::string(what) + " unavailable on this platform");
}

void FatalCheckFailure(const char* file, int line, const char* expr, const std::string& msg) {
  std::fprintf(stderr, "[FATAL %s:%d] check failed: %s %s\n", Basename(file), line, expr,
               msg.c_str());
  std::abort();
}

}  // namespace ensemble
