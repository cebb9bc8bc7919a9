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
            const std::size_t after = i + 1;
            if (after >= tokens.size()) break;

            if ((t.text == "require" || t.text == "ensure") &&
                is_punct(tokens[after], "(")) {
                all_checked = true;
                continue;
            }
            const auto taint_it = tainted.find(t.text);
            if (taint_it == tainted.end()) continue;

            if (is_punct(tokens[after], ".")) {
                const std::size_t member = after + 1;
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
        std::size_t j = i + 1;
        if (j >= tokens.size()) break;
        if (is_punct(tokens[j], "::")) {
            const std::size_t k = j + 1;
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
            ++j;
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
        std::size_t j = i + 1;
        if (is_view_frame) {
            // Skip the `()` of the frame() call.
            if (j >= tokens.size() || !is_punct(tokens[j], "(")) continue;
            ++j;
            if (j >= tokens.size() || !is_punct(tokens[j], ")")) continue;
            ++j;
        }
        if (j >= tokens.size() || !(is_punct(tokens[j], ".") || is_punct(tokens[j], "->"))) {
            continue;
        }
        const std::size_t m = j + 1;
        if (m >= tokens.size() || !is_ident(tokens[m]) || tokens[m].text != "serialize") {
            continue;
        }
        const std::size_t call = m + 1;
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
        const std::size_t sep = i + 1;
        if (sep >= tokens.size() || !is_punct(tokens[sep], "::")) continue;
        // Collect the whole `a::b::c` chain so `arpsec::wire::X` resolves
        // the module from the right segment.
        std::vector<std::string_view> chain{tokens[i].text};
        std::size_t k = sep;
        std::size_t chain_end = i;
        while (k < tokens.size() && is_punct(tokens[k], "::")) {
            const std::size_t nxt = k + 1;
            if (nxt >= tokens.size() || !is_ident(tokens[nxt])) break;
            chain.push_back(tokens[nxt].text);
            chain_end = nxt;
            k = nxt + 1;
        }
        const std::size_t resume = chain_end;

        for (std::size_t s = 0; s + 1 < chain.size(); ++s) {
            const std::string_view mod = chain[s];
            if (module_layering().find(mod) == module_layering().end()) continue;
            const std::string_view symbol = chain[s + 1];
            if (mod == in.module) break;
            if (self->second.count(std::string{mod}) != 0) break;
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
