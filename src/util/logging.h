#ifndef TPS_UTIL_LOGGING_H_
#define TPS_UTIL_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

#include "util/status.h"

namespace tps {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// Messages below this level are dropped.
inline constexpr LogLevel kMinLogLevel = LogLevel::kInfo;

namespace internal {

/// Accumulates one log line and emits it (to stderr) on destruction.
/// kFatal messages abort the process after emission.
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
  bool enabled_;
  std::ostringstream stream_;
};

/// Swallows a disabled log statement's stream expression.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace tps

#define TPS_LOG(level)                                                 \
  ::tps::internal::LogMessage(::tps::LogLevel::k##level, __FILE__, __LINE__)

/// CHECK-style invariant assertion: active in all build modes, aborts with a
/// message on failure. Use for programmer errors, not for expected runtime
/// failures (those return Status).
#define TPS_CHECK(condition)                                          \
  (condition) ? static_cast<void>(0)                                  \
              : static_cast<void>(::tps::internal::LogMessage(        \
                                      ::tps::LogLevel::kFatal,        \
                                      __FILE__, __LINE__)             \
                                  << "Check failed: " #condition " ")

#define TPS_CHECK_OK(expr)                                            \
  do {                                                                \
    const ::tps::Status& _tps_check_status = (expr);                  \
    if (!_tps_check_status.ok()) {                                    \
      ::tps::internal::LogMessage(::tps::LogLevel::kFatal, __FILE__,  \
                                  __LINE__)                           \
          << "Check failed (status): " << _tps_check_status.ToString(); \
    }                                                                 \
  } while (false)

#define TPS_DCHECK(condition) TPS_CHECK(condition)

#endif  // TPS_UTIL_LOGGING_H_
