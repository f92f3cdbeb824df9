#include "util/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>

#include "util/clock.h"

namespace drugtree {
namespace util {

namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kWarning)};

/// Reads DRUGTREE_LOG_LEVEL into g_min_level exactly once, before the first
/// threshold check, so the env var takes effect without any init call.
std::atomic<int>& MinLevel() {
  static const bool env_applied = [] {
    LogLevel level;
    const char* env = std::getenv("DRUGTREE_LOG_LEVEL");
    if (env != nullptr && ParseLogLevel(env, &level)) {
      g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
    }
    return true;
  }();
  (void)env_applied;
  return g_min_level;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarning: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kFatal: return "FATAL";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

}  // namespace

bool ParseLogLevel(const char* name, LogLevel* out) {
  if (name == nullptr) return false;
  std::string upper;
  for (const char* p = name; *p != '\0'; ++p) {
    upper += static_cast<char>(std::toupper(static_cast<unsigned char>(*p)));
  }
  if (upper == "DEBUG") *out = LogLevel::kDebug;
  else if (upper == "INFO") *out = LogLevel::kInfo;
  else if (upper == "WARNING" || upper == "WARN") *out = LogLevel::kWarning;
  else if (upper == "ERROR") *out = LogLevel::kError;
  else return false;
  return true;
}

LogLevel InitialLogLevel() {
  LogLevel level = LogLevel::kWarning;
  ParseLogLevel(std::getenv("DRUGTREE_LOG_LEVEL"), &level);
  return level;
}

void SetLogLevel(LogLevel level) {
  MinLevel().store(static_cast<int>(level), std::memory_order_relaxed);
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level),
      file_(file),
      line_(line),
      enabled_(static_cast<int>(level) >=
                   MinLevel().load(std::memory_order_relaxed) ||
               level == LogLevel::kFatal) {}

LogMessage::~LogMessage() {
  if (enabled_) {
    // Monotonic timestamp in the RealClock timebase, so log lines correlate
    // with obs span start/end stamps.
    std::fprintf(stderr, "[%lld %s %s:%d] %s\n",
                 static_cast<long long>(RealClock::Instance()->NowMicros()),
                 LevelTag(level_), Basename(file_), line_,
                 stream_.str().c_str());
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace util
}  // namespace drugtree
