// Lightweight leveled logging.
//
// Each log line is rendered into a private stringstream and written with one
// fprintf, so interleaved lines from the parallel engine's shard threads stay
// whole (level changes are for single-threaded setup only).  The global level
// defaults to kWarn so tests and benches stay quiet; examples raise it to
// kInfo/kTrace to narrate migrations the way Figure 3-1 does.
//
// DEMOS_LOG tests the level before it builds the line: below the level no
// stream (and no locale copy) is constructed and the `<<` operands are NOT
// evaluated, so a log argument must never carry a side effect the program
// relies on.  The macro is one expression, so `if (c) DEMOS_LOG(...) << x;
// else ...` binds the else to the caller's if.

#ifndef DEMOS_BASE_LOG_H_
#define DEMOS_BASE_LOG_H_

#include <cstdio>
#include <sstream>
#include <string>

namespace demos {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

LogLevel& GlobalLogLevel();

inline LogLevel& GlobalLogLevel() {
  static LogLevel level = LogLevel::kWarn;
  return level;
}

inline const char* LogLevelName(LogLevel level) {
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
    case LogLevel::kOff:
      return "-";
  }
  return "?";
}

inline bool LogEnabled(LogLevel level) { return level >= GlobalLogLevel(); }

// One enabled log line; built only by DEMOS_LOG after the level test passed.
class LogLine {
 public:
  LogLine(LogLevel level, const char* component) {
    stream_ << "[" << LogLevelName(level) << " " << component << "] ";
  }

  ~LogLine() {
    stream_ << "\n";
    std::fputs(stream_.str().c_str(), stderr);
  }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

// Turns the `LogLine(...) << ...` chain into a void operand of DEMOS_LOG's
// conditional.  `&` binds looser than `<<`, so the whole chain runs first.
struct LogVoidify {
  void operator&(const LogLine& /*line*/) const {}
};

}  // namespace demos

#define DEMOS_LOG(level, component)                              \
  !::demos::LogEnabled(::demos::LogLevel::level)                 \
      ? static_cast<void>(0)                                     \
      : ::demos::LogVoidify() & ::demos::LogLine(::demos::LogLevel::level, component)

#endif  // DEMOS_BASE_LOG_H_
