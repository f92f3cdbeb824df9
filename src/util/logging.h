// Minimal leveled logger with a process-wide severity threshold.
//
// Usage:
//   DT_LOG(INFO) << "loaded " << n << " proteins";
//   DT_CHECK(x > 0) << "x must be positive";

#ifndef DRUGTREE_UTIL_LOGGING_H_
#define DRUGTREE_UTIL_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace drugtree {
namespace util {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// Sets the process-wide minimum level that is actually emitted.
void SetLogLevel(LogLevel level);

/// Parses a level name (DEBUG/INFO/WARNING/ERROR, case-insensitive; WARN
/// accepted). Returns false and leaves `out` untouched on anything else.
bool ParseLogLevel(const char* name, LogLevel* out);

/// The initial process log level: DRUGTREE_LOG_LEVEL from the environment
/// when set and valid, kWarning otherwise. (Applied automatically before
/// the first message; exposed for tests.)
LogLevel InitialLogLevel();

/// One log statement. Accumulates the message via operator<< and emits it to
/// stderr (with level tag and source location) on destruction. A kFatal
/// message aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  bool enabled_;
  std::ostringstream stream_;
};

namespace log_internal {
// ALL-CAPS aliases so DT_LOG(INFO) spells like the usage comment.
inline constexpr LogLevel DEBUG = LogLevel::kDebug;
inline constexpr LogLevel INFO = LogLevel::kInfo;
inline constexpr LogLevel WARNING = LogLevel::kWarning;
inline constexpr LogLevel ERROR = LogLevel::kError;
inline constexpr LogLevel FATAL = LogLevel::kFatal;
}  // namespace log_internal

}  // namespace util
}  // namespace drugtree

#define DT_LOG(LEVEL)                                                  \
  ::drugtree::util::LogMessage(::drugtree::util::log_internal::LEVEL,  \
                               __FILE__, __LINE__)

/// Always-on invariant check; logs the failed condition and aborts.
#define DT_CHECK(cond)                                                 \
  if (!(cond))                                                         \
  ::drugtree::util::LogMessage(::drugtree::util::LogLevel::kFatal,     \
                               __FILE__, __LINE__)                     \
      << "Check failed: " #cond " "

#endif  // DRUGTREE_UTIL_LOGGING_H_
