#include "common/log.hpp"

#include <mutex>

namespace arpsec::common {

std::atomic<LogLevel> Log::level_{LogLevel::kWarn};

namespace {

/// The log sink and the mutex that guards it. Every read or write of `file`
/// holds `mutex`, which serializes sink reconfiguration against in-flight
/// writes from sweep workers and keeps each log line contiguous.
struct Sink {
    std::mutex mutex;
    std::FILE* file = nullptr;  // nullptr writes to stderr
};

Sink& log_sink() {
    static Sink s;
    return s;
}

const char* level_name(LogLevel l) {
    switch (l) {
        case LogLevel::kTrace: return "TRACE";
        case LogLevel::kDebug: return "DEBUG";
        case LogLevel::kInfo: return "INFO";
        case LogLevel::kWarn: return "WARN";
        case LogLevel::kError: return "ERROR";
        case LogLevel::kOff: return "OFF";
    }
    return "?";
}

}  // namespace

void Log::set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
LogLevel Log::level() { return level_.load(std::memory_order_relaxed); }

void Log::set_sink(std::FILE* sink) {
    Sink& s = log_sink();
    const std::lock_guard<std::mutex> lock{s.mutex};
    s.file = sink;
}

void Log::write(LogLevel level, SimTime now, std::string_view component,
                std::string_view message) {
    if (!enabled(level)) return;
    Sink& s = log_sink();
    const std::lock_guard<std::mutex> lock{s.mutex};
    std::FILE* out = s.file != nullptr ? s.file : stderr;
    std::fprintf(out, "[%12.6fs] %-5s %.*s: %.*s\n", now.to_seconds(), level_name(level),
                 static_cast<int>(component.size()), component.data(),
                 static_cast<int>(message.size()), message.data());
}

}  // namespace arpsec::common
