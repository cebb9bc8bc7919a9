#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hpp"

namespace arpsec::lint {

struct Param {
    std::string type;  // token spellings joined with single spaces
    std::string name;  // "" for unnamed parameters
};

/// One function (or member function) definition with a body.
struct FunctionDef {
    std::string name;
    std::vector<Param> params;
    std::size_t body_begin = 0;  // token index of the opening '{'
    std::size_t body_end = 0;    // token index of the matching '}'
};

/// A class/struct member (or namespace-scope variable) declaration that the
/// heuristic declaration scanner recognized outside any function body.
struct FieldDef {
    std::string type;  // token spellings joined with single spaces
    std::string name;
};

/// Per-translation-unit index: a heuristic single-pass parse of the token
/// stream. It does not try to be a C++ front end — it recovers what the
/// semantic lint rules read (function bodies with parameter types, field
/// declarations) and stays silent where it cannot be sure.
struct TuIndex {
    std::vector<Token> tokens;
    std::vector<FunctionDef> functions;
    std::vector<FieldDef> fields;  // non-function declarations seen
};

[[nodiscard]] TuIndex build_index(std::string_view text);

}  // namespace arpsec::lint
