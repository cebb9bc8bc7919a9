#pragma once

#include <charconv>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/time.hpp"

namespace arpsec::common {

/// Parses all of `text` as a base-10 number in [lo, hi]. Junk, a leading
/// space or '+', a '-' on an unsigned type, trailing characters, overflow
/// and values outside the bounds all fail; so does NaN for a double.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text, std::type_identity_t<T> lo,
                                            std::type_identity_t<T> hi) {
    const char* end = text.data() + text.size();
    T value{};
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) return std::nullopt;
    return value;
}

/// Splits a comma-separated list; empty items are dropped ("a,,b," -> a, b).
[[nodiscard]] std::vector<std::string> split_list(std::string_view text);

/// Walks a tool's argv one flag at a time. Each flag's value is the next
/// argument; a missing or malformed value fails the reader, which then
/// stops stepping and names the flag in error():
///
///   common::ArgReader args{argc, argv};
///   while (args.next()) {
///       if (args.is("--jobs")) {
///           args.number(jobs, 1, 64);
///       } else {
///           args.reject();
///       }
///   }
///   if (!args.ok()) return usage(argv[0], args.error());
class ArgReader {
public:
    ArgReader(int argc, char** argv) : argc_(argc), argv_(argv) {}

    /// Steps to the next argument; false at the end of argv or after a failure.
    [[nodiscard]] bool next();
    /// True when the current argument is `name`.
    [[nodiscard]] bool is(std::string_view name) const { return flag_ == name; }

    /// Reads the current flag's value into `out`. On a missing or bad value
    /// each returns false, leaves `out` untouched and fails the reader.
    bool value(std::string& out);
    /// A comma list, empty items dropped (see split_list).
    bool list(std::vector<std::string>& out);
    /// A number in [lo, hi] (parse_number), by default the range of T.
    template <class T>
    bool number(T& out, std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
        const char* text = take();
        if (text == nullptr) return false;
        const std::optional<T> parsed = parse_number<T>(text, lo, hi);
        if (!parsed) return fail("bad value '" + std::string{text} + "' for " + std::string{flag_});
        out = *parsed;
        return true;
    }
    /// Whole milliseconds >= 0 that fit the nanosecond clock.
    bool millis(Duration& out);

    /// Fails the reader on the current argument: it is not a known flag.
    void reject();

    [[nodiscard]] bool ok() const { return error_.empty(); }
    /// What failed, naming the argument; empty while ok().
    [[nodiscard]] const std::string& error() const { return error_; }

private:
    /// The next argument as the current flag's value, or nullptr (and a
    /// failed reader) when argv has run out.
    const char* take();
    bool fail(std::string message);

    int argc_;
    char** argv_;
    int index_ = 0;
    std::string_view flag_;
    std::string error_;
};

}  // namespace arpsec::common
