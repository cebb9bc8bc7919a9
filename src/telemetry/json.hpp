#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace arpsec::telemetry {

/// Minimal JSON document value: build, serialize, parse. Powers the
/// telemetry exports (run artifacts, trace files) and lets tests parse the
/// emitted files back without an external dependency. Object keys preserve
/// insertion order so artifacts diff cleanly across runs.
class Json {
public:
    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;

    Json() : value_(nullptr) {}
    Json(std::nullptr_t) : value_(nullptr) {}
    Json(bool b) : value_(b) {}
    Json(int v) : value_(static_cast<std::int64_t>(v)) {}
    Json(unsigned v) : value_(static_cast<std::int64_t>(v)) {}
    Json(std::int64_t v) : value_(v) {}
    Json(std::uint64_t v) : value_(static_cast<std::int64_t>(v)) {}
    Json(double v) : value_(v) {}
    Json(const char* s) : value_(std::string(s)) {}
    Json(std::string s) : value_(std::move(s)) {}

    static Json object() { Json j; j.value_ = Object{}; return j; }
    static Json array() { Json j; j.value_ = Array{}; return j; }

    [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
    [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
    [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
    [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(value_); }
    [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
    [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
    [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(value_); }
    [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(value_); }

    [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
    [[nodiscard]] std::int64_t as_int() const {
        if (is_double()) return static_cast<std::int64_t>(std::get<double>(value_));
        return std::get<std::int64_t>(value_);
    }
    [[nodiscard]] double as_double() const {
        if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
        return std::get<double>(value_);
    }
    [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
    [[nodiscard]] const Array& as_array() const { return std::get<Array>(value_); }
    [[nodiscard]] const Object& as_object() const { return std::get<Object>(value_); }

    /// Object accessor: find-or-append (turns a null value into an object).
    Json& operator[](const std::string& key);
    /// Array element access (must be an array).
    [[nodiscard]] const Json& at(std::size_t i) const { return as_array().at(i); }

    /// Object lookup without insertion; nullptr when absent or not an object.
    [[nodiscard]] const Json* find(const std::string& key) const;

    /// Array append (turns a null value into an array).
    void push_back(Json v);

    [[nodiscard]] std::size_t size() const;

    /// Serializes; `indent` < 0 means compact single-line output.
    [[nodiscard]] std::string dump(int indent = -1) const;

    /// Strict-ish recursive-descent parse; nullopt on malformed input.
    [[nodiscard]] static std::optional<Json> parse(std::string_view text);

private:
    void dump_to(std::string& out, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object> value_;
};

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
void json_escape(std::string& out, std::string_view s);

}  // namespace arpsec::telemetry
