#include "util/logging.h"

#include <cstdio>
#include <iostream>

namespace tps {

namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level),
      enabled_(static_cast<int>(level) >= static_cast<int>(kMinLogLevel)) {
  if (enabled_) {
    // Strip directories from the file path for readability.
    const char* basename = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') basename = p + 1;
    }
    stream_ << "[" << LevelName(level_) << " " << basename << ":" << line
            << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace tps
