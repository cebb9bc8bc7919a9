#include "telemetry/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace arpsec::telemetry {

Json& Json::operator[](const std::string& key) {
    if (is_null()) value_ = Object{};
    auto& obj = std::get<Object>(value_);
    for (auto& [k, v] : obj) {
        if (k == key) return v;
    }
    obj.emplace_back(key, Json{});
    return obj.back().second;
}

const Json* Json::find(const std::string& key) const {
    if (!is_object()) return nullptr;
    for (const auto& [k, v] : as_object()) {
        if (k == key) return &v;
    }
    return nullptr;
}

void Json::push_back(Json v) {
    if (is_null()) value_ = Array{};
    std::get<Array>(value_).push_back(std::move(v));
}

std::size_t Json::size() const {
    if (is_array()) return as_array().size();
    if (is_object()) return as_object().size();
    return 0;
}

void json_escape(std::string& out, std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    out.push_back('"');
    std::size_t run = 0;  // start of the bytes that need no escaping
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        out.append(s.substr(run, i - run));
        run = i + 1;
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                out += "\\u00";
                out.push_back(kHex[c >> 4]);
                out.push_back(kHex[c & 0xF]);
        }
    }
    out.append(s.substr(run));
    out.push_back('"');
}

namespace {

void append_newline_indent(std::string& out, int indent, int depth) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
    if (is_null()) {
        out += "null";
    } else if (is_bool()) {
        out += as_bool() ? "true" : "false";
    } else if (is_int()) {
        out += std::to_string(std::get<std::int64_t>(value_));
    } else if (is_double()) {
        const double v = std::get<double>(value_);
        if (!std::isfinite(v)) {
            out += "null";  // JSON has no Inf/NaN
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            out += buf;
        }
    } else if (is_string()) {
        json_escape(out, as_string());
    } else if (is_array()) {
        const auto& arr = as_array();
        if (arr.empty()) {
            out += "[]";
            return;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i > 0) out.push_back(',');
            append_newline_indent(out, indent, depth + 1);
            arr[i].dump_to(out, indent, depth + 1);
        }
        append_newline_indent(out, indent, depth);
        out.push_back(']');
    } else {
        const auto& obj = as_object();
        if (obj.empty()) {
            out += "{}";
            return;
        }
        out.push_back('{');
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i > 0) out.push_back(',');
            append_newline_indent(out, indent, depth + 1);
            json_escape(out, obj[i].first);
            out += indent < 0 ? ":" : ": ";
            obj[i].second.dump_to(out, indent, depth + 1);
        }
        append_newline_indent(out, indent, depth);
        out.push_back('}');
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<Json> run() {
        skip_ws();
        auto v = parse_value();
        if (!v) return std::nullopt;
        skip_ws();
        if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
        return v;
    }

private:
    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
    [[nodiscard]] char peek() const { return text_[pos_]; }

    bool consume(char c) {
        if (eof() || text_[pos_] != c) return false;
        ++pos_;
        return true;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    std::optional<Json> parse_value() {
        if (eof()) return std::nullopt;
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': {
                auto s = parse_string();
                if (!s) return std::nullopt;
                return Json(std::move(*s));
            }
            case 't': return consume_literal("true") ? std::optional<Json>(Json(true))
                                                     : std::nullopt;
            case 'f': return consume_literal("false") ? std::optional<Json>(Json(false))
                                                      : std::nullopt;
            case 'n': return consume_literal("null") ? std::optional<Json>(Json(nullptr))
                                                     : std::nullopt;
            default: return parse_number();
        }
    }

    std::optional<Json> parse_object() {
        if (!consume('{')) return std::nullopt;
        Json obj = Json::object();
        skip_ws();
        if (consume('}')) return obj;
        while (true) {
            skip_ws();
            auto key = parse_string();
            if (!key) return std::nullopt;
            skip_ws();
            if (!consume(':')) return std::nullopt;
            skip_ws();
            auto val = parse_value();
            if (!val) return std::nullopt;
            obj[*key] = std::move(*val);
            skip_ws();
            if (consume(',')) continue;
            if (consume('}')) return obj;
            return std::nullopt;
        }
    }

    std::optional<Json> parse_array() {
        if (!consume('[')) return std::nullopt;
        Json arr = Json::array();
        skip_ws();
        if (consume(']')) return arr;
        while (true) {
            skip_ws();
            auto val = parse_value();
            if (!val) return std::nullopt;
            arr.push_back(std::move(*val));
            skip_ws();
            if (consume(',')) continue;
            if (consume(']')) return arr;
            return std::nullopt;
        }
    }

    std::optional<std::string> parse_string() {
        if (!consume('"')) return std::nullopt;
        std::string out;
        while (!eof()) {
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c == '\\') {
                if (eof()) return std::nullopt;
                const char esc = text_[pos_++];
                switch (esc) {
                    case '"': out.push_back('"'); break;
                    case '\\': out.push_back('\\'); break;
                    case '/': out.push_back('/'); break;
                    case 'b': out.push_back('\b'); break;
                    case 'f': out.push_back('\f'); break;
                    case 'n': out.push_back('\n'); break;
                    case 'r': out.push_back('\r'); break;
                    case 't': out.push_back('\t'); break;
                    case 'u': {
                        if (pos_ + 4 > text_.size()) return std::nullopt;
                        unsigned cp = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = text_[pos_++];
                            cp <<= 4;
                            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
                            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
                            else return std::nullopt;
                        }
                        // Basic-plane UTF-8 encoding (surrogate pairs land as
                        // two 3-byte sequences; fine for telemetry payloads).
                        if (cp < 0x80) {
                            out.push_back(static_cast<char>(cp));
                        } else if (cp < 0x800) {
                            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
                            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                        } else {
                            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
                            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
                            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                        }
                        break;
                    }
                    default: return std::nullopt;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return std::nullopt;  // raw control character
            } else {
                out.push_back(c);
            }
        }
        return std::nullopt;  // unterminated
    }

    std::optional<Json> parse_number() {
        const std::size_t start = pos_;
        if (consume('-')) {}
        if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) return std::nullopt;
        while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        bool is_floating = false;
        if (!eof() && peek() == '.') {
            is_floating = true;
            ++pos_;
            if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) return std::nullopt;
            while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            is_floating = true;
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
            if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) return std::nullopt;
            while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        const std::string token(text_.substr(start, pos_ - start));
        if (is_floating) return Json(std::strtod(token.c_str(), nullptr));
        return Json(static_cast<std::int64_t>(std::strtoll(token.c_str(), nullptr, 10)));
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace arpsec::telemetry
