#include "lint/index.hpp"

#include <algorithm>
#include <array>

namespace arpsec::lint {

namespace {

bool is_punct(const Token& t, std::string_view s) {
    return t.kind == TokenKind::kPunct && t.text == s;
}

bool is_ident(const Token& t) { return t.kind == TokenKind::kIdentifier; }

bool is_ident(const Token& t, std::string_view s) {
    return t.kind == TokenKind::kIdentifier && t.text == s;
}

/// Keywords that can precede a '(' without being a function name.
constexpr std::array<std::string_view, 14> kNotFunctionNames = {
    "if",     "for",      "while",  "switch",        "catch",   "return", "sizeof",
    "alignof", "decltype", "noexcept", "static_assert", "operator", "throw", "new",
};

bool callable_name(std::string_view s) {
    return std::find(kNotFunctionNames.begin(), kNotFunctionNames.end(), s) ==
           kNotFunctionNames.end();
}

std::string join_tokens(const std::vector<Token>& tokens, const std::vector<std::size_t>& idx,
                        std::size_t begin, std::size_t end) {
    std::string out;
    for (std::size_t k = begin; k < end; ++k) {
        if (!out.empty()) out += ' ';
        out += tokens[idx[k]].text;
    }
    return out;
}

/// Indices of structural tokens: preprocessor directives are dropped
/// together with the rest of their (possibly continued) line, so
/// `#include <thread>` never looks like expression tokens.
std::vector<std::size_t> code_indices(const std::vector<Token>& tokens) {
    std::vector<std::size_t> code;
    code.reserve(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind != TokenKind::kPreprocessor) {
            code.push_back(i);
            continue;
        }
        // Swallow the directive line (and backslash continuations).
        std::size_t line = tokens[i].line;
        std::size_t j = i + 1;
        bool continued = false;
        while (j < tokens.size()) {
            if (tokens[j].line != line && !continued) break;
            if (tokens[j].line != line) line = tokens[j].line;
            continued = is_punct(tokens[j], "\\");
            ++j;
        }
        i = j - 1;
    }
    return code;
}

/// Position (in `code` coordinates) of the bracket matching code[open],
/// or code.size() when unbalanced.
std::size_t match_in_code(const std::vector<Token>& tokens, const std::vector<std::size_t>& code,
                          std::size_t open, std::string_view open_s, std::string_view close_s) {
    int depth = 0;
    for (std::size_t k = open; k < code.size(); ++k) {
        if (is_punct(tokens[code[k]], open_s)) ++depth;
        if (is_punct(tokens[code[k]], close_s) && --depth == 0) return k;
    }
    return code.size();
}

struct Scanner {
    const std::vector<Token>& tokens;
    const std::vector<std::size_t>& code;
    TuIndex& out;

    [[nodiscard]] const Token& tok(std::size_t k) const { return tokens[code[k]]; }
    [[nodiscard]] std::size_t size() const { return code.size(); }

    /// Splits the parameter list in (open, close) into typed params.
    std::vector<Param> parse_params(std::size_t open, std::size_t close) {
        std::vector<Param> params;
        std::size_t piece_start = open + 1;
        int depth = 0;
        for (std::size_t k = open + 1; k <= close && k < size(); ++k) {
            const bool at_end = k == close;
            if (!at_end) {
                if (is_punct(tok(k), "(") || is_punct(tok(k), "<") || is_punct(tok(k), "{") ||
                    is_punct(tok(k), "[")) {
                    ++depth;
                    continue;
                }
                if (is_punct(tok(k), ")") || is_punct(tok(k), ">") || is_punct(tok(k), "}") ||
                    is_punct(tok(k), "]")) {
                    --depth;
                    continue;
                }
            }
            if (!at_end && !(depth == 0 && is_punct(tok(k), ","))) continue;
            if (k <= piece_start) {
                piece_start = k + 1;
                continue;  // empty piece: `()`
            }
            // Default argument: ignore everything from '=' on.
            std::size_t piece_end = k;
            for (std::size_t q = piece_start; q < k; ++q) {
                if (is_punct(tok(q), "=")) {
                    piece_end = q;
                    break;
                }
            }
            Param p;
            if (piece_end > piece_start && is_ident(tok(piece_end - 1)) &&
                piece_end - piece_start > 1) {
                p.name = tok(piece_end - 1).text;
                p.type = join_tokens(tokens, code, piece_start, piece_end - 1);
            } else {
                p.type = join_tokens(tokens, code, piece_start, piece_end);
            }
            params.push_back(std::move(p));
            piece_start = k + 1;
        }
        return params;
    }

    /// Tries to recognize a function definition whose name sits at code
    /// position k (an identifier directly followed by '('). On success the
    /// body is recorded and the position after the closing brace returned;
    /// on failure k itself is returned.
    std::size_t try_function(std::size_t k) {
        if (!callable_name(tok(k).text)) return k;
        const std::size_t open = k + 1;
        const std::size_t close = match_in_code(tokens, code, open, "(", ")");
        if (close >= size()) return k;

        // Walk the trailer (cv-qualifiers, noexcept, trailing return type,
        // constructor init list) looking for the body '{'. Declarations
        // (';'), defaulted/deleted definitions and initializers ('=') and
        // anything unexpected reject the candidate.
        std::size_t p = close + 1;
        bool in_init_list = false;
        std::size_t body = size();
        while (p < size()) {
            const Token& t = tok(p);
            if (is_punct(t, ";") || is_punct(t, "=")) return k;
            if (is_punct(t, "(")) {
                p = match_in_code(tokens, code, p, "(", ")") + 1;
                continue;
            }
            if (is_punct(t, "{")) {
                if (in_init_list) {
                    // Brace-init of a member: `: x_{0}` — skip the group and
                    // stay in the init list.
                    p = match_in_code(tokens, code, p, "{", "}") + 1;
                    in_init_list = false;
                    continue;
                }
                body = p;
                break;
            }
            if (is_punct(t, ":")) {
                in_init_list = true;
                ++p;
                continue;
            }
            if (is_punct(t, ",")) {
                in_init_list = true;  // next init-list item
                ++p;
                continue;
            }
            if (is_ident(t) || t.kind == TokenKind::kNumber || is_punct(t, "::") ||
                is_punct(t, "<") || is_punct(t, ">") || is_punct(t, "&") ||
                is_punct(t, "*") || is_punct(t, "->") || is_punct(t, "[") ||
                is_punct(t, "]")) {
                if (is_ident(t) && !in_init_list) in_init_list = false;
                ++p;
                continue;
            }
            return k;  // something that is not part of a definition header
        }
        if (body >= size()) return k;
        const std::size_t body_close = match_in_code(tokens, code, body, "{", "}");

        FunctionDef fn;
        fn.name = tok(k).text;
        fn.params = parse_params(open, close);
        fn.body_begin = code[body];
        fn.body_end = body_close < size() ? code[body_close] : tokens.size();
        out.functions.push_back(std::move(fn));
        return body_close < size() ? body_close + 1 : size();
    }

    void run() {
        std::size_t k = 0;
        while (k < size()) {
            const Token& t = tok(k);
            // Right after '<' or ',' the keyword introduces a template type
            // parameter (`template <class T>`), not a class head.
            const bool type_parameter =
                k > 0 && (is_punct(tok(k - 1), "<") || is_punct(tok(k - 1), ","));
            if ((is_ident(t, "class") || is_ident(t, "struct") || is_ident(t, "union")) &&
                !type_parameter) {
                // Walk the class head, then descend into the body so member
                // functions are indexed too.
                std::size_t p = k + 1;
                while (p < size() && !is_punct(tok(p), "{") && !is_punct(tok(p), ";")) ++p;
                k = p + 1;
                continue;
            }
            if (is_ident(t) && k + 1 < size() && is_punct(tok(k + 1), "(")) {
                const std::size_t after = try_function(k);
                if (after != k) {
                    k = after;
                    continue;
                }
            }
            ++k;
        }
    }
};

/// True when [begin, end) (token coordinates) lies inside any recorded
/// function body.
bool inside_body(const std::vector<FunctionDef>& functions, std::size_t i) {
    for (const auto& fn : functions) {
        if (i > fn.body_begin && i < fn.body_end) return true;
    }
    return false;
}

/// Collects namespace/class-scope declarations (runs of code tokens ending
/// in ';' with no parentheses) into FieldDefs.
void collect_fields(const std::vector<Token>& tokens, const std::vector<std::size_t>& code,
                    TuIndex& out) {
    std::vector<std::size_t> run;  // positions in `code`
    for (std::size_t k = 0; k < code.size(); ++k) {
        const Token& t = tokens[code[k]];
        if (inside_body(out.functions, code[k])) {
            run.clear();
            continue;
        }
        if (is_punct(t, "{") || is_punct(t, "}") || is_punct(t, ":")) {
            run.clear();
            continue;
        }
        if (!is_punct(t, ";")) {
            run.push_back(k);
            continue;
        }
        // Declaration run complete. Reject anything with parens (functions,
        // macro calls) or leading keywords that are not declarations.
        bool plausible = run.size() >= 2;
        for (const std::size_t q : run) {
            if (is_punct(tokens[code[q]], "(") || is_punct(tokens[code[q]], ")")) {
                plausible = false;
            }
        }
        if (plausible) {
            const std::string_view first = tokens[code[run.front()]].text;
            if (first == "using" || first == "typedef" || first == "friend" ||
                first == "template" || first == "public" || first == "private" ||
                first == "protected" || first == "return" || first == "enum") {
                plausible = false;
            }
        }
        if (plausible) {
            // Name = identifier just before '=' (or before '[' / run end).
            std::size_t stop = run.size();
            for (std::size_t q = 0; q < run.size(); ++q) {
                if (is_punct(tokens[code[run[q]]], "=")) {
                    stop = q;
                    break;
                }
            }
            std::size_t name_pos = stop;
            while (name_pos > 0) {
                --name_pos;
                if (is_ident(tokens[code[run[name_pos]]])) break;
            }
            if (name_pos > 0 && is_ident(tokens[code[run[name_pos]]])) {
                FieldDef f;
                f.name = tokens[code[run[name_pos]]].text;
                f.type = join_tokens(tokens, code, run.front(), run[name_pos]);
                out.fields.push_back(std::move(f));
            }
        }
        run.clear();
    }
}

}  // namespace

TuIndex build_index(std::string_view text) {
    TuIndex idx;
    idx.tokens = lex(text);
    const std::vector<std::size_t> code = code_indices(idx.tokens);
    Scanner scanner{idx.tokens, code, idx};
    scanner.run();
    collect_fields(idx.tokens, code, idx);
    return idx;
}

}  // namespace arpsec::lint
