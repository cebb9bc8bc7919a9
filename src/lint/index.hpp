#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hpp"

namespace arpsec::lint {

/// One enum definition: `enum [class|struct] Name [: type] { ... }`.
struct EnumDef {
    std::string name;  // bare name (nested enums are indexed by leaf name)
    std::vector<std::string> enumerators;
    std::size_t line = 0;
};

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
    std::size_t line = 0;
};

/// A class/struct member (or namespace-scope variable) declaration that the
/// heuristic declaration scanner recognized outside any function body.
struct FieldDef {
    std::string type;  // token spellings joined with single spaces
    std::string name;
    std::size_t line = 0;
};

/// Per-translation-unit symbol index: a heuristic single-pass parse of the
/// token stream. It does not try to be a C++ front end — it recovers the
/// symbols the semantic lint rules need (enums with enumerators, function
/// bodies with parameter types, field declarations, the symbols a file
/// defines) and stays silent where it cannot be sure.
struct TuIndex {
    std::vector<Token> tokens;  // full stream, comments included
    std::vector<EnumDef> enums;
    std::vector<FunctionDef> functions;
    std::vector<FieldDef> fields;   // non-function declarations seen
    std::set<std::string> symbols;  // classes, enums, functions, enumerators
};

[[nodiscard]] TuIndex build_index(std::string_view text);

/// Facts merged across every file of the tree (pass 1 of lint_tree), so a
/// switch in one TU can be checked against an enum defined in a header and
/// a qualified name can be checked against the module that defines it.
struct TreeIndex {
    std::map<std::string, std::vector<EnumDef>, std::less<>> enums;
    std::map<std::string, std::set<std::string>, std::less<>> module_symbols;
};

/// Folds `tu` facts into `tree`. `module` is the `src/<module>/` the file
/// lives in ("" outside src/).
void merge_into(TreeIndex& tree, const std::string& module, const TuIndex& tu);

/// Token index of the `}` matching the `{` at `open` (scanning `tokens`
/// while ignoring comment tokens), or tokens.size() when unbalanced.
[[nodiscard]] std::size_t match_brace(const std::vector<Token>& tokens, std::size_t open);

}  // namespace arpsec::lint
