#pragma once

#include <cstdint>
#include <compare>
#include <string>

namespace arpsec::common {

/// Duration of simulated time, in nanoseconds. A strong type so that raw
/// integers cannot be confused with times or byte counts.
class Duration {
public:
    constexpr Duration() = default;
    constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}

    static constexpr Duration nanos(std::int64_t v) { return Duration{v}; }
    static constexpr Duration micros(std::int64_t v) { return Duration{v * 1'000}; }
    static constexpr Duration millis(std::int64_t v) { return Duration{v * 1'000'000}; }
    static constexpr Duration seconds(std::int64_t v) { return Duration{v * 1'000'000'000}; }
    static constexpr Duration zero() { return Duration{0}; }

    /// The most whole milliseconds / seconds a Duration holds: the upper
    /// bound of every millisecond and second flag.
    static constexpr std::int64_t kMaxMillis = INT64_MAX / 1'000'000;
    static constexpr std::int64_t kMaxSeconds = INT64_MAX / 1'000'000'000;

    [[nodiscard]] constexpr std::int64_t count() const { return ns_; }
    [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }
    [[nodiscard]] constexpr double to_millis() const { return static_cast<double>(ns_) / 1e6; }
    [[nodiscard]] constexpr double to_micros() const { return static_cast<double>(ns_) / 1e3; }

    constexpr auto operator<=>(const Duration&) const = default;

    constexpr Duration operator+(Duration o) const { return Duration{ns_ + o.ns_}; }
    constexpr Duration operator-(Duration o) const { return Duration{ns_ - o.ns_}; }
    constexpr Duration operator*(std::int64_t k) const { return Duration{ns_ * k}; }
    constexpr Duration operator/(std::int64_t k) const { return Duration{ns_ / k}; }
    constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
    constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }

    [[nodiscard]] std::string to_string() const;

private:
    std::int64_t ns_ = 0;
};

/// A point in simulated time (nanoseconds since the start of the run).
class SimTime {
public:
    constexpr SimTime() = default;
    constexpr explicit SimTime(std::int64_t ns) : ns_(ns) {}

    static constexpr SimTime zero() { return SimTime{0}; }
    static constexpr SimTime max() { return SimTime{INT64_MAX}; }

    [[nodiscard]] constexpr std::int64_t nanos() const { return ns_; }
    [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }
    [[nodiscard]] constexpr double to_millis() const { return static_cast<double>(ns_) / 1e6; }

    constexpr auto operator<=>(const SimTime&) const = default;

    constexpr SimTime operator+(Duration d) const { return SimTime{ns_ + d.count()}; }
    constexpr Duration operator-(SimTime o) const { return Duration{ns_ - o.ns_}; }
    constexpr SimTime& operator+=(Duration d) { ns_ += d.count(); return *this; }

    [[nodiscard]] std::string to_string() const;

private:
    std::int64_t ns_ = 0;
};

/// Wall-clock stopwatch for benchmark timing. common/time.* is the one
/// module allowed to touch the host clock (see the sim-determinism lint
/// rule); simulation code measures time exclusively in SimTime.
class Stopwatch {
public:
    Stopwatch() : start_ns_(now_ns()) {}

    void restart() { start_ns_ = now_ns(); }

    [[nodiscard]] std::int64_t elapsed_nanos() const { return now_ns() - start_ns_; }
    [[nodiscard]] double elapsed_seconds() const {
        return static_cast<double>(elapsed_nanos()) / 1e9;
    }

private:
    static std::int64_t now_ns();

    std::int64_t start_ns_ = 0;
};

}  // namespace arpsec::common
