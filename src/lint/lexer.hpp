#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace arpsec::lint {

/// Lexical class of a source region, produced by the single escape-aware
/// scanner shared by the comment/string stripper and the lexer. Keeping one
/// scanner is what guarantees the two never disagree about where a literal
/// ends (raw strings with custom delimiters, digit separators, escapes).
enum class RegionKind {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kCharLiteral,
    kRawString,
};

/// Half-open byte range [begin, end) of one region. `content_begin` /
/// `content_end` bound the part the stripper blanks: the interior of a
/// literal (delimiters stay visible so `"x"` still reads as a string
/// expression) and the whole body of a comment (markers included).
struct Region {
    RegionKind kind = RegionKind::kCode;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t content_begin = 0;
    std::size_t content_end = 0;
};

/// Splits `text` into code / comment / literal regions. Handles escape
/// sequences, raw strings with custom delimiters (`R"x(...)x"`, including
/// `u8R`/`uR`/`LR`/`UR` prefixes), and digit separators (`1'000` never opens
/// a char literal). Regions are contiguous and cover the whole input.
[[nodiscard]] std::vector<Region> scan_regions(std::string_view text);

/// Token classes. Identifiers include keywords — the rules that care match
/// on spelling. A preprocessor token covers `#` plus the directive name
/// (`#include`, `# define`); the rest of the directive line lexes normally.
enum class TokenKind {
    kIdentifier,
    kNumber,
    kString,
    kRawString,
    kCharLiteral,
    kPunct,
    kPreprocessor,
};

[[nodiscard]] const char* to_string(TokenKind kind);

/// One token with its source span. `text` views into the lexed input, so
/// the input must outlive the token stream.
struct Token {
    TokenKind kind = TokenKind::kPunct;
    std::string_view text;
    std::size_t offset = 0;  // byte offset of text.front() in the input
    std::size_t line = 1;    // 1-based
    std::size_t col = 1;     // 1-based byte column
};

/// Tokenizes `text`. Never throws and never reads out of bounds, whatever
/// the input bytes (the fuzz suite drives attacker-generated frames through
/// it); unknown bytes become single-character punctuation tokens.
/// Whitespace and comments are dropped; a comment counts as whitespace.
[[nodiscard]] std::vector<Token> lex(std::string_view text);

}  // namespace arpsec::lint
