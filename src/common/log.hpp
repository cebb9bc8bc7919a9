#pragma once

#include <atomic>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/time.hpp"

namespace arpsec::common {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Process-wide log configuration. The simulator itself is single-threaded,
/// but the sweep engine (src/exp/) runs many independent scenarios on a
/// worker pool, so the level is an atomic and the sink lives in log.cpp,
/// beside the mutex that every set_sink and write holds (one line is written
/// atomically, never interleaved). Output goes to stderr by default.
class Log {
public:
    static void set_level(LogLevel level);
    static LogLevel level();
    static void set_sink(std::FILE* sink);

    /// Writes one line: "[ 1.234567s] WARN component: message".
    static void write(LogLevel level, SimTime now, std::string_view component,
                      std::string_view message);

    static bool enabled(LogLevel level) {
        return level >= level_.load(std::memory_order_relaxed);
    }

private:
    static std::atomic<LogLevel> level_;
};

}  // namespace arpsec::common
