#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace arpsec::lint {

const std::map<std::string, std::set<std::string>, std::less<>>& module_layering() {
    static const std::map<std::string, std::set<std::string>, std::less<>> kAllowed = {
        {"common", {"common"}},
        {"telemetry", {"telemetry", "common"}},
        {"wire", {"wire", "common"}},
        {"crypto", {"crypto", "wire", "common"}},
        {"sim", {"sim", "telemetry", "wire", "common"}},
        {"arp", {"arp", "telemetry", "wire", "common"}},
        {"l2", {"l2", "sim", "telemetry", "wire", "common"}},
        {"host", {"host", "arp", "sim", "telemetry", "wire", "common"}},
        {"attack", {"attack", "host", "arp", "sim", "telemetry", "wire", "common"}},
        {"detect",
         {"detect", "host", "l2", "arp", "sim", "crypto", "telemetry", "wire", "common"}},
        {"core",
         {"core", "detect", "attack", "host", "l2", "arp", "sim", "crypto", "telemetry", "wire",
          "common"}},
        {"exp",
         {"exp", "core", "detect", "attack", "host", "l2", "arp", "sim", "crypto", "telemetry",
          "wire", "common"}},
        // The checker may drive everything below it (fan-out via exp, sim
        // construction, scheme deployment), but no module lists "check":
        // nothing in the tree may depend back on the test harness.
        {"check",
         {"check", "exp", "detect", "attack", "host", "l2", "arp", "sim", "crypto", "telemetry",
          "wire", "common"}},
        // Replay sits beside check at the top of the stack: it renders
        // check scenarios, fans out via exp, and deploys detect schemes —
        // but nothing may depend back on it.
        {"replay",
         {"replay", "check", "exp", "detect", "attack", "host", "l2", "arp", "sim", "crypto",
          "telemetry", "wire", "common"}},
        // The streaming service tops the stack: it owns transports and shard
        // workers and feeds replay sessions. Listing "serve" nowhere else is
        // what forbids reverse dependencies — sim/detect/replay code can
        // never reach back into the daemon.
        {"serve",
         {"serve", "replay", "check", "exp", "detect", "attack", "host", "l2", "arp", "sim",
          "crypto", "telemetry", "wire", "common"}},
        {"lint", {"lint", "telemetry", "common"}},
    };
    return kAllowed;
}

namespace {

bool is_punct(const Token& t, std::string_view s) {
    return t.kind == TokenKind::kPunct && t.text == s;
}

bool is_ident(const Token& t) { return t.kind == TokenKind::kIdentifier; }

std::string snippet_at(const std::vector<std::string_view>& raw_lines, std::size_t line) {
    if (line == 0 || line > raw_lines.size()) return "";
    std::string_view s = raw_lines[line - 1];
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) {
        s.remove_prefix(1);
    }
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
        s.remove_suffix(1);
    }
    return std::string{s};
}

/// Next non-comment token at or after `i`, or tokens.size().
std::size_t next_code(const std::vector<Token>& tokens, std::size_t i) {
    while (i < tokens.size() && tokens[i].kind == TokenKind::kComment) ++i;
    return i;
}

bool type_contains(const std::string& type, std::string_view word) {
    std::size_t pos = 0;
    while ((pos = type.find(word, pos)) != std::string::npos) {
        const bool left = pos == 0 || !(std::isalnum(static_cast<unsigned char>(type[pos - 1])) ||
                                        type[pos - 1] == '_');
        const std::size_t end = pos + word.size();
        const bool right = end >= type.size() ||
                           !(std::isalnum(static_cast<unsigned char>(type[end])) ||
                             type[end] == '_');
        if (left && right) return true;
        ++pos;
    }
    return false;
}

/// A type that carries attacker-controlled bytes into a wire parser.
bool untrusted_type(const std::string& type) {
    if (type_contains(type, "span") && type_contains(type, "uint8_t")) return true;
    if (type_contains(type, "string_view")) return true;
    if (type_contains(type, "Bytes")) return true;
    return false;
}

constexpr std::array<std::string_view, 4> kSizeProbes = {"size", "length", "empty",
                                                         "remaining"};
constexpr std::array<std::string_view, 4> kUncheckedReads = {"data", "front", "back", "begin"};

}  // namespace

void check_untrusted_read_bounds(const SemanticInput& in, std::vector<Violation>& out) {
    if (in.path.find("src/wire/") == std::string_view::npos) return;
    const std::vector<Token>& tokens = in.tu.tokens;

    // Span-typed fields (e.g. ByteReader::data_) are tainted in every member
    // function of the TU.
    std::set<std::string, std::less<>> field_taint;
    for (const FieldDef& f : in.tu.fields) {
        if (untrusted_type(f.type)) field_taint.insert(f.name);
    }

    for (const FunctionDef& fn : in.tu.functions) {
        std::set<std::string, std::less<>> tainted = field_taint;
        for (const Param& p : fn.params) {
            if (!p.name.empty() && untrusted_type(p.type)) tainted.insert(p.name);
        }
        if (tainted.empty()) continue;

        std::set<std::string, std::less<>> checked;
        bool all_checked = false;  // require()/ensure() validate every input
        for (std::size_t i = fn.body_begin; i < fn.body_end && i < tokens.size(); ++i) {
            const Token& t = tokens[i];
            if (!is_ident(t)) continue;
            const std::size_t after = next_code(tokens, i + 1);
            if (after >= tokens.size()) break;

            if ((t.text == "require" || t.text == "ensure") &&
                is_punct(tokens[after], "(")) {
                all_checked = true;
                continue;
            }
            const auto taint_it = tainted.find(t.text);
            if (taint_it == tainted.end()) continue;

            if (is_punct(tokens[after], ".")) {
                const std::size_t member = next_code(tokens, after + 1);
                if (member >= tokens.size() || !is_ident(tokens[member])) continue;
                const std::string_view m = tokens[member].text;
                if (std::find(kSizeProbes.begin(), kSizeProbes.end(), m) !=
                    kSizeProbes.end()) {
                    checked.insert(std::string{t.text});
                    continue;
                }
                if (std::find(kUncheckedReads.begin(), kUncheckedReads.end(), m) ==
                    kUncheckedReads.end()) {
                    continue;
                }
                if (all_checked || checked.count(t.text) != 0) continue;
                // Appended: GCC 12 reports a false -Wrestrict on
                // `"'" + std::string` at -O2 and above.
                std::string message{"'"};
                message.append(t.text).append(".").append(m);
                message.append("()' reads untrusted bytes before any size check; guard with '");
                message.append(t.text).append(".size()' / require() first");
                out.push_back({std::string{in.path}, t.line, "untrusted-read-bounds",
                               std::move(message), snippet_at(in.raw_lines, t.line)});
                continue;
            }
            if (is_punct(tokens[after], "[")) {
                if (all_checked || checked.count(t.text) != 0) continue;
                out.push_back({std::string{in.path}, t.line, "untrusted-read-bounds",
                               "indexed read of untrusted bytes '" + std::string{t.text} +
                                   "[...]' without a dominating bounds check; guard with '" +
                                   std::string{t.text} + ".size()' / require() first",
                               snippet_at(in.raw_lines, t.line)});
            }
        }
    }
}

namespace {

/// One parsed switch statement: case-label enumerators plus default info.
struct SwitchShape {
    std::size_t switch_line = 0;
    std::size_t default_line = 0;           // 0 when absent
    std::size_t close_line = 0;             // line of the switch's '}'
    std::string qualifier;                  // `Q` from the first `Q::kX` label
    std::vector<std::string> labels;        // leaf enumerator names
    bool enum_like = true;                  // false on numeric/char labels
};

/// Token index of the matching close paren, ignoring comments.
std::size_t match_paren_tok(const std::vector<Token>& tokens, std::size_t open) {
    int depth = 0;
    for (std::size_t i = open; i < tokens.size(); ++i) {
        if (is_punct(tokens[i], "(")) ++depth;
        if (is_punct(tokens[i], ")") && --depth == 0) return i;
    }
    return tokens.size();
}

}  // namespace

void check_exhaustive_switch(const SemanticInput& in, std::vector<Violation>& out) {
    const std::vector<Token>& tokens = in.tu.tokens;

    // Enum fact base: the whole tree when available, else this TU.
    std::map<std::string, std::vector<EnumDef>, std::less<>> local;
    const std::map<std::string, std::vector<EnumDef>, std::less<>>* enums = &local;
    if (in.tree != nullptr) {
        enums = &in.tree->enums;
    } else {
        for (const EnumDef& e : in.tu.enums) local[e.name].push_back(e);
    }
    if (enums->empty()) return;

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (!is_ident(tokens[i]) || tokens[i].text != "switch") continue;
        const std::size_t open_paren = next_code(tokens, i + 1);
        if (open_paren >= tokens.size() || !is_punct(tokens[open_paren], "(")) continue;
        const std::size_t close_paren = match_paren_tok(tokens, open_paren);
        const std::size_t open_brace = next_code(tokens, close_paren + 1);
        if (open_brace >= tokens.size() || !is_punct(tokens[open_brace], "{")) continue;
        const std::size_t close_brace = match_brace(tokens, open_brace);

        SwitchShape shape;
        shape.switch_line = tokens[i].line;
        shape.close_line =
            close_brace < tokens.size() ? tokens[close_brace].line : tokens[i].line;

        int depth = 0;
        for (std::size_t k = open_brace; k < close_brace && k < tokens.size(); ++k) {
            const Token& t = tokens[k];
            if (is_punct(t, "{")) ++depth;
            if (is_punct(t, "}")) --depth;
            if (depth != 1 || !is_ident(t)) continue;
            if (t.text == "default") {
                const std::size_t colon = next_code(tokens, k + 1);
                if (colon < tokens.size() && is_punct(tokens[colon], ":")) {
                    shape.default_line = t.line;
                }
                continue;
            }
            if (t.text != "case") continue;
            // Label tokens up to the ':' terminator ('::' lexes as one
            // token, so a bare ':' is unambiguous).
            std::vector<std::string_view> chain;
            bool clean = true;
            std::size_t k2 = k + 1;
            while (k2 < close_brace && k2 < tokens.size()) {
                const Token& lt = tokens[k2];
                if (lt.kind == TokenKind::kComment) {
                    ++k2;
                    continue;
                }
                if (is_punct(lt, ":")) break;
                if (is_ident(lt)) {
                    chain.push_back(lt.text);
                } else if (!is_punct(lt, "::")) {
                    clean = false;  // numeric / char / expression label
                }
                ++k2;
            }
            if (!clean || chain.empty()) {
                shape.enum_like = false;
                break;
            }
            shape.labels.emplace_back(chain.back());
            if (chain.size() >= 2 && shape.qualifier.empty()) {
                shape.qualifier = std::string{chain[chain.size() - 2]};
            }
            k = k2;
        }
        if (!shape.enum_like || shape.labels.empty()) continue;

        // Bind to a repo enum: every label must be an enumerator of one
        // candidate definition (restricted by qualifier when present).
        const EnumDef* best = nullptr;
        std::vector<std::string> best_missing;
        bool fully_covered = false;
        auto consider = [&](const EnumDef& def) {
            for (const std::string& label : shape.labels) {
                if (std::find(def.enumerators.begin(), def.enumerators.end(), label) ==
                    def.enumerators.end()) {
                    return;
                }
            }
            std::vector<std::string> missing;
            for (const std::string& e : def.enumerators) {
                if (std::find(shape.labels.begin(), shape.labels.end(), e) ==
                    shape.labels.end()) {
                    missing.push_back(e);
                }
            }
            if (missing.empty()) {
                fully_covered = true;
                return;
            }
            if (best == nullptr || missing.size() < best_missing.size()) {
                best = &def;
                best_missing = std::move(missing);
            }
        };
        if (!shape.qualifier.empty()) {
            const auto it = enums->find(shape.qualifier);
            if (it == enums->end()) continue;
            for (const EnumDef& def : it->second) consider(def);
        } else {
            for (const auto& [name, defs] : *enums) {
                for (const EnumDef& def : defs) consider(def);
            }
        }
        if (fully_covered || best == nullptr) continue;

        std::string missing_list;
        for (const std::string& m : best_missing) {
            if (!missing_list.empty()) missing_list += ", ";
            missing_list += m;
        }
        if (shape.default_line != 0) {
            out.push_back({std::string{in.path}, shape.default_line, "exhaustive-switch",
                           "bare default over enum '" + best->name + "' hides enumerators: " +
                               missing_list +
                               "; cover them or annotate the default with "
                               "lint:allow(exhaustive-switch)",
                           snippet_at(in.raw_lines, shape.default_line)});
        } else {
            // Autofix: insert an annotated default just before the switch's
            // closing brace, indented one level past it.
            std::string indent;
            if (shape.close_line >= 1 && shape.close_line <= in.raw_lines.size()) {
                const std::string_view close = in.raw_lines[shape.close_line - 1];
                for (const char c : close) {
                    if (c == ' ' || c == '\t') {
                        indent += c;
                    } else {
                        break;
                    }
                }
            }
            Violation v{std::string{in.path}, shape.switch_line, "exhaustive-switch",
                        "switch over enum '" + best->name +
                            "' misses enumerators: " + missing_list +
                            "; add the cases or an annotated default",
                        snippet_at(in.raw_lines, shape.switch_line)};
            v.fix_line = shape.close_line;
            v.fix_insert = indent +
                           "    default:  // lint:allow(exhaustive-switch): unhandled "
                           "enumerators fall through\n" +
                           indent + "        break;\n";
            out.push_back(std::move(v));
        }
    }
}

void check_no_frame_copy(const SemanticInput& in, std::vector<Violation>& out) {
    // src/wire/ owns the frame codec; tests build raw-byte fixtures.
    if (in.path.find("src/wire/") != std::string_view::npos) return;
    if (in.path.find("tests/") != std::string_view::npos) return;
    const std::vector<Token>& tokens = in.tu.tokens;

    // Names declared with an EthernetFrame type: fields, parameters, and
    // (collected in the scan below) local declarations.
    std::set<std::string, std::less<>> frames;
    for (const FieldDef& f : in.tu.fields) {
        if (type_contains(f.type, "EthernetFrame")) frames.insert(f.name);
    }
    for (const FunctionDef& fn : in.tu.functions) {
        for (const Param& p : fn.params) {
            if (!p.name.empty() && type_contains(p.type, "EthernetFrame")) {
                frames.insert(p.name);
            }
        }
    }

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token& t = tokens[i];
        if (!is_ident(t) || t.text != "EthernetFrame") continue;
        std::size_t j = next_code(tokens, i + 1);
        if (j >= tokens.size()) break;
        if (is_punct(tokens[j], "::")) {
            const std::size_t k = next_code(tokens, j + 1);
            if (k < tokens.size() && is_ident(tokens[k]) && tokens[k].text == "parse") {
                out.push_back({std::string{in.path}, t.line, "no-frame-copy",
                               "EthernetFrame::parse outside src/wire/ re-parses bytes the "
                               "frame fabric memoizes; read them through a FrameView",
                               snippet_at(in.raw_lines, t.line)});
            }
            continue;
        }
        // Local declaration: `[wire::]EthernetFrame [const] [&|*] name ...`.
        while (j < tokens.size() &&
               (is_punct(tokens[j], "&") || is_punct(tokens[j], "*") ||
                (is_ident(tokens[j]) && tokens[j].text == "const"))) {
            j = next_code(tokens, j + 1);
        }
        if (j < tokens.size() && is_ident(tokens[j])) {
            frames.insert(std::string{tokens[j].text});
        }
    }

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token& t = tokens[i];
        if (!is_ident(t)) continue;
        // `view.frame().serialize()`: re-serializing a FrameView's
        // materialized frame round-trips bytes the buffer already holds.
        const bool is_view_frame = t.text == "frame" && i > 0 &&
                                   (is_punct(tokens[i - 1], ".") || is_punct(tokens[i - 1], "->"));
        const bool is_frame_value = frames.count(t.text) != 0;
        if (!is_view_frame && !is_frame_value) continue;
        std::size_t j = next_code(tokens, i + 1);
        if (is_view_frame) {
            // Skip the `()` of the frame() call.
            if (j >= tokens.size() || !is_punct(tokens[j], "(")) continue;
            j = next_code(tokens, j + 1);
            if (j >= tokens.size() || !is_punct(tokens[j], ")")) continue;
            j = next_code(tokens, j + 1);
        }
        if (j >= tokens.size() || !(is_punct(tokens[j], ".") || is_punct(tokens[j], "->"))) {
            continue;
        }
        const std::size_t m = next_code(tokens, j + 1);
        if (m >= tokens.size() || !is_ident(tokens[m]) || tokens[m].text != "serialize") {
            continue;
        }
        const std::size_t call = next_code(tokens, m + 1);
        if (call >= tokens.size() || !is_punct(tokens[call], "(")) continue;
        out.push_back({std::string{in.path}, t.line, "no-frame-copy",
                       "serializing an EthernetFrame outside src/wire/ copies wire bytes "
                       "the frame fabric owns; send the frame (origin) or forward its "
                       "FrameView instead",
                       snippet_at(in.raw_lines, t.line)});
    }
}

void check_symbol_layering(const SemanticInput& in, std::vector<Violation>& out) {
    if (in.module.empty()) return;
    const auto self = module_layering().find(in.module);
    if (self == module_layering().end()) return;
    const std::vector<Token>& tokens = in.tu.tokens;

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (!is_ident(tokens[i])) continue;
        const std::size_t sep = next_code(tokens, i + 1);
        if (sep >= tokens.size() || !is_punct(tokens[sep], "::")) continue;
        // Collect the whole `a::b::c` chain so `arpsec::wire::X` resolves
        // the module from the right segment.
        std::vector<std::string_view> chain{tokens[i].text};
        std::size_t k = sep;
        std::size_t chain_end = i;
        while (k < tokens.size() && is_punct(tokens[k], "::")) {
            const std::size_t nxt = next_code(tokens, k + 1);
            if (nxt >= tokens.size() || !is_ident(tokens[nxt])) break;
            chain.push_back(tokens[nxt].text);
            chain_end = nxt;
            k = next_code(tokens, nxt + 1);
        }
        const std::size_t resume = chain_end;

        for (std::size_t s = 0; s + 1 < chain.size(); ++s) {
            const std::string_view mod = chain[s];
            if (module_layering().find(mod) == module_layering().end()) continue;
            const std::string_view symbol = chain[s + 1];
            if (mod == in.module) break;
            if (self->second.count(std::string{mod}) != 0) break;
            // With a tree index, only flag symbols the named module really
            // defines — an unrelated namespace segment stays silent.
            if (in.tree != nullptr) {
                const auto ms = in.tree->module_symbols.find(std::string{mod});
                if (ms == in.tree->module_symbols.end() ||
                    ms->second.count(std::string{symbol}) == 0) {
                    break;
                }
            }
            out.push_back({std::string{in.path}, tokens[i].line, "symbol-layering",
                           "module '" + in.module + "' may not reach symbol '" +
                               std::string{mod} + "::" + std::string{symbol} +
                               "' (layering: see src/" + in.module + "/CMakeLists.txt)",
                           snippet_at(in.raw_lines, tokens[i].line)});
            break;
        }
        i = resume;
    }
}

}  // namespace arpsec::lint
