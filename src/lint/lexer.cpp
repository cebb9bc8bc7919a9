#include "lint/lexer.hpp"

#include <array>
#include <cctype>
#include <string>

namespace arpsec::lint {

namespace {

bool ident_start(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool digit(char c) { return c >= '0' && c <= '9'; }

/// True when the `'` at `pos` is a digit separator (`1'000`, `0xFF'FF`)
/// rather than the start of a char literal: the maximal identifier-ish run
/// ending just before it must itself start with a digit (a pp-number).
bool is_digit_separator(std::string_view text, std::size_t pos) {
    if (pos == 0 || pos + 1 >= text.size()) return false;
    if (!std::isalnum(static_cast<unsigned char>(text[pos + 1]))) return false;
    std::size_t start = pos;
    while (start > 0) {
        const char p = text[start - 1];
        if (ident_char(p) || p == '\'' || p == '.') {
            --start;
        } else {
            break;
        }
    }
    return start < pos && digit(text[start]);
}

/// Raw-string prefixes: the maximal identifier run ending just before the
/// opening quote must be exactly one of these.
bool is_raw_prefix(std::string_view run) {
    return run == "R" || run == "u8R" || run == "uR" || run == "LR" || run == "UR";
}

/// Length of the identifier run ending at `quote` (exclusive), i.e. the
/// candidate encoding prefix of a string literal.
std::size_t prefix_run(std::string_view text, std::size_t quote) {
    std::size_t start = quote;
    while (start > 0 && ident_char(text[start - 1])) --start;
    return quote - start;
}

}  // namespace

std::vector<Region> scan_regions(std::string_view text) {
    std::vector<Region> out;
    const std::size_t n = text.size();
    std::size_t i = 0;
    std::size_t code_start = 0;

    auto flush_code = [&](std::size_t end) {
        if (end > code_start) out.push_back({RegionKind::kCode, code_start, end, end, end});
    };

    while (i < n) {
        const char c = text[i];
        const char next = i + 1 < n ? text[i + 1] : '\0';

        if (c == '/' && next == '/') {
            flush_code(i);
            std::size_t end = text.find('\n', i + 2);
            if (end == std::string_view::npos) end = n;
            out.push_back({RegionKind::kLineComment, i, end, i, end});
            code_start = i = end;
        } else if (c == '/' && next == '*') {
            flush_code(i);
            std::size_t end = text.find("*/", i + 2);
            end = end == std::string_view::npos ? n : end + 2;
            out.push_back({RegionKind::kBlockComment, i, end, i, end});
            code_start = i = end;
        } else if (c == '"') {
            const std::size_t plen = prefix_run(text, i);
            const std::string_view prefix = text.substr(i - plen, plen);
            if (is_raw_prefix(prefix)) {
                // R"delim( ... )delim" — the delimiter may be empty or any
                // run of non-paren, non-space chars up to 16 bytes.
                const std::size_t open = text.find('(', i + 1);
                if (open != std::string_view::npos && open - i <= 17) {
                    // Appended: GCC 12 reports a false -Wrestrict on
                    // `")" + std::string` at -O2 and above.
                    std::string term{")"};
                    term.append(text.substr(i + 1, open - i - 1));
                    term += '"';
                    std::size_t close = text.find(term, open + 1);
                    std::size_t end = close == std::string_view::npos ? n : close + term.size();
                    flush_code(i - plen);
                    const std::size_t content_end =
                        close == std::string_view::npos ? end : end - 1;
                    out.push_back({RegionKind::kRawString, i - plen, end, i + 1, content_end});
                    code_start = i = end;
                    continue;
                }
            }
            // Ordinary string literal: escapes honored, terminated by the
            // closing quote or an unescaped newline (ill-formed input must
            // not swallow the rest of the file).
            flush_code(i);
            std::size_t j = i + 1;
            bool closed = false;
            while (j < n) {
                if (text[j] == '\\' && j + 1 < n) {
                    j += 2;
                } else if (text[j] == '"') {
                    closed = true;
                    ++j;
                    break;
                } else if (text[j] == '\n') {
                    break;
                } else {
                    ++j;
                }
            }
            out.push_back({RegionKind::kString, i, j, i + 1, closed ? j - 1 : j});
            code_start = i = j;
        } else if (c == '\'' && !is_digit_separator(text, i)) {
            flush_code(i);
            std::size_t j = i + 1;
            bool closed = false;
            while (j < n) {
                if (text[j] == '\\' && j + 1 < n) {
                    j += 2;
                } else if (text[j] == '\'') {
                    closed = true;
                    ++j;
                    break;
                } else if (text[j] == '\n') {
                    break;
                } else {
                    ++j;
                }
            }
            out.push_back({RegionKind::kCharLiteral, i, j, i + 1, closed ? j - 1 : j});
            code_start = i = j;
        } else {
            ++i;
        }
    }
    flush_code(n);
    return out;
}

const char* to_string(TokenKind kind) {
    switch (kind) {
        case TokenKind::kIdentifier: return "identifier";
        case TokenKind::kNumber: return "number";
        case TokenKind::kString: return "string";
        case TokenKind::kRawString: return "raw-string";
        case TokenKind::kCharLiteral: return "char";
        case TokenKind::kPunct: return "punct";
        case TokenKind::kPreprocessor: return "preprocessor";
    }
    return "?";
}

namespace {

/// Multi-character operators, longest first within each leading char.
constexpr std::array<std::string_view, 24> kMultiPunct = {
    "<<=", ">>=", "->*", "...", "::", "->", ".*", "<<", ">>", "<=", ">=", "==",
    "!=",  "&&",  "||",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++",
};

/// Running line/column cursor: advances over a byte range once, in order.
class Cursor {
public:
    explicit Cursor(std::string_view text) : text_(text) {}

    void advance_to(std::size_t offset) {
        while (pos_ < offset && pos_ < text_.size()) {
            if (text_[pos_] == '\n') {
                ++line_;
                col_ = 1;
            } else {
                ++col_;
            }
            ++pos_;
        }
    }

    [[nodiscard]] std::size_t line() const { return line_; }
    [[nodiscard]] std::size_t col() const { return col_; }

private:
    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
    std::size_t col_ = 1;
};

}  // namespace

std::vector<Token> lex(std::string_view text) {
    std::vector<Token> tokens;
    Cursor cursor{text};
    // True until a non-whitespace token is seen on the current line; gates
    // preprocessor-directive recognition.
    bool at_line_start = true;

    auto emit = [&](TokenKind kind, std::size_t begin, std::size_t end) {
        cursor.advance_to(begin);
        tokens.push_back(
            {kind, text.substr(begin, end - begin), begin, cursor.line(), cursor.col()});
        at_line_start = false;
    };

    for (const Region& region : scan_regions(text)) {
        switch (region.kind) {
            case RegionKind::kLineComment:
            case RegionKind::kBlockComment:
                // Dropped like whitespace, line breaks included.
                if (text.substr(region.begin, region.end - region.begin).find('\n') !=
                    std::string_view::npos) {
                    at_line_start = true;
                }
                continue;
            case RegionKind::kString:
                emit(TokenKind::kString, region.begin, region.end);
                continue;
            case RegionKind::kRawString:
                emit(TokenKind::kRawString, region.begin, region.end);
                continue;
            case RegionKind::kCharLiteral:
                emit(TokenKind::kCharLiteral, region.begin, region.end);
                continue;
            case RegionKind::kCode:
                break;
        }

        std::size_t i = region.begin;
        while (i < region.end) {
            const char c = text[i];
            if (c == '\n') {
                at_line_start = true;
                ++i;
                continue;
            }
            if (std::isspace(static_cast<unsigned char>(c)) != 0) {
                ++i;
                continue;
            }
            if (c == '#' && at_line_start) {
                // Preprocessor token: `#` plus the directive name, horizontal
                // whitespace between them allowed (`#  include`).
                std::size_t j = i + 1;
                while (j < region.end && (text[j] == ' ' || text[j] == '\t')) ++j;
                std::size_t name_end = j;
                while (name_end < region.end && ident_char(text[name_end])) ++name_end;
                emit(TokenKind::kPreprocessor, i, name_end > j ? name_end : i + 1);
                i = name_end > j ? name_end : i + 1;
                continue;
            }
            if (ident_start(c)) {
                std::size_t j = i + 1;
                while (j < region.end && ident_char(text[j])) ++j;
                emit(TokenKind::kIdentifier, i, j);
                i = j;
                continue;
            }
            if (digit(c) || (c == '.' && i + 1 < region.end && digit(text[i + 1]))) {
                // pp-number: digits, idents, digit separators, dots, and
                // sign characters directly after an exponent marker.
                std::size_t j = i + 1;
                while (j < region.end) {
                    const char d = text[j];
                    if (ident_char(d) || d == '.' || d == '\'') {
                        ++j;
                    } else if ((d == '+' || d == '-') && j > i &&
                               (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                                text[j - 1] == 'p' || text[j - 1] == 'P')) {
                        ++j;
                    } else {
                        break;
                    }
                }
                emit(TokenKind::kNumber, i, j);
                i = j;
                continue;
            }
            std::size_t punct_len = 1;
            for (const auto op : kMultiPunct) {
                if (text.compare(i, op.size(), op) == 0 && i + op.size() <= region.end) {
                    punct_len = op.size();
                    break;
                }
            }
            emit(TokenKind::kPunct, i, i + punct_len);
            i += punct_len;
        }
    }
    return tokens;
}

}  // namespace arpsec::lint
