#include "lint/linter.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <optional>
#include <set>

#include "common/args.hpp"
#include "common/expected.hpp"
#include "common/file.hpp"
#include "lint/index.hpp"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"

namespace arpsec::lint {

namespace {

bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string_view trim(std::string_view s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) {
        s.remove_prefix(1);
    }
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
        s.remove_suffix(1);
    }
    return s;
}

std::vector<std::string_view> split_lines(std::string_view text) {
    std::vector<std::string_view> lines;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t nl = text.find('\n', start);
        if (nl == std::string_view::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

/// True when `needle` occurs in `line` as a whole token (no identifier
/// character on either side). `::`-qualified needles match only the full
/// qualified spelling.
bool contains_token(std::string_view line, std::string_view needle) {
    std::size_t pos = 0;
    while ((pos = line.find(needle, pos)) != std::string_view::npos) {
        const bool left_ok =
            pos == 0 || !ident_char(line[pos - 1]) || !ident_char(needle.front());
        const std::size_t end = pos + needle.size();
        const bool right_ok =
            end >= line.size() || !ident_char(line[end]) || !ident_char(needle.back());
        if (left_ok && right_ok) return true;
        pos += 1;
    }
    return false;
}

/// Identifiers that leak wall-clock time or global PRNG state into what must
/// be a deterministic simulation. Only common/time.* may touch the host
/// clock.
constexpr std::array<std::string_view, 14> kDeterminismBans = {
    "rand",
    "srand",
    "drand48",
    "random_device",
    "mt19937",
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "gettimeofday",
    "clock_gettime",
    "localtime",
    "gmtime",
    "strftime",
    "std::time",
};

/// Concurrency headers whose inclusion forks the simulator's single-threaded
/// world model. Only the sweep executor (src/exp/) may spawn threads, and
/// only the logger (common/log.*) may lock — everything else must stay
/// single-threaded so a per-seed run is deterministic.
constexpr std::array<std::string_view, 5> kThreadHeaderBans = {
    "thread", "mutex", "shared_mutex", "condition_variable", "future",
};

/// Spellings that start concurrency without the telltale include (the header
/// may arrive transitively).
constexpr std::array<std::string_view, 4> kThreadTokenBans = {
    "std::thread",
    "std::jthread",
    "std::async",
    "std::mutex",
};

bool starts_with(std::string_view s, std::string_view prefix) {
    return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Extracts the rule ids named by lint:allow(...) markers on `line` (comment
/// text included — callers pass the original, unstripped line).
std::set<std::string> allow_markers(std::string_view line) {
    std::set<std::string> out;
    std::size_t pos = 0;
    while ((pos = line.find("lint:allow(", pos)) != std::string_view::npos) {
        const std::size_t open = pos + std::string_view{"lint:allow("}.size();
        const std::size_t close = line.find(')', open);
        if (close == std::string_view::npos) break;
        for (const std::string& id : common::split_list(line.substr(open, close - open))) {
            const std::string_view t = trim(id);
            if (!t.empty()) out.emplace(t);
        }
        pos = close + 1;
    }
    return out;
}

/// `src/<module>/...` (anywhere in the path) -> module name, else "".
std::string module_of(std::string_view path) {
    const std::size_t src = path.rfind("src/");
    if (src == std::string_view::npos) return "";
    if (src != 0 && path[src - 1] != '/') return "";
    const std::string_view after = path.substr(src + 4);
    const std::size_t slash = after.find('/');
    if (slash == std::string_view::npos) return "";
    return std::string{after.substr(0, slash)};
}

struct FileContext {
    std::string_view path;
    std::vector<std::string_view> raw_lines;   // original text, per line
    std::vector<std::string_view> code_lines;  // comments/strings blanked
    bool is_header = false;
    bool in_src = false;
    std::string module;  // "" when not under src/<module>/
};

void check_determinism(const FileContext& ctx, std::vector<Violation>& out) {
    if (ctx.path.find("common/time.") != std::string_view::npos) return;
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
        for (const auto ban : kDeterminismBans) {
            if (!contains_token(ctx.code_lines[i], ban)) continue;
            out.push_back({std::string{ctx.path}, i + 1, "sim-determinism",
                           "'" + std::string{ban} +
                               "' leaks wall-clock/global randomness into sim code; use "
                               "common::SimTime / common::Rng (only common/time.* may touch "
                               "the host clock)",
                           std::string{trim(ctx.raw_lines[i])}});
        }
    }
}

void check_no_threads(const FileContext& ctx, std::vector<Violation>& out) {
    if (ctx.module == "exp") return;
    // The streaming service is inherently concurrent (intake thread and
    // shard workers — docs/SERVING.md). Its threads never enter sim code:
    // each SchemeSession stays confined to one worker.
    if (ctx.module == "serve") return;
    if (ctx.path.find("common/log.") != std::string_view::npos) return;
    // The SPSC ring behind the serve intake->shard hop: atomics only, no
    // threads, no locks.
    if (ctx.path.find("common/ring.") != std::string_view::npos) return;
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
        const std::string_view code = ctx.code_lines[i];
        std::string offender;
        const std::string_view trimmed = trim(code);
        if (starts_with(trimmed, "#include")) {
            for (const auto hdr : kThreadHeaderBans) {
                const std::string needle = "<" + std::string{hdr} + ">";
                if (trimmed.find(needle) != std::string_view::npos) offender = needle;
            }
        }
        if (offender.empty()) {
            for (const auto tok : kThreadTokenBans) {
                if (contains_token(code, tok)) {
                    offender = std::string{tok};
                    break;
                }
            }
        }
        if (offender.empty()) continue;
        out.push_back({std::string{ctx.path}, i + 1, "no-threads-in-sim",
                       "'" + offender +
                           "' introduces concurrency outside the sanctioned sites; the "
                           "simulation must stay single-threaded per seed (threads only in "
                           "src/exp/ and src/serve/, locking only in "
                           "common/log.*, lock-free ring only in common/ring.*)",
                       std::string{trim(ctx.raw_lines[i])}});
    }
}

/// OS networking headers. Sockets are I/O with the outside world: only the
/// serve transport layer may open them, so the simulator provably cannot
/// leak packets onto (or read state from) a real network.
constexpr std::array<std::string_view, 6> kSocketHeaderBans = {
    "sys/socket.h", "sys/un.h", "netinet/in.h", "netinet/tcp.h", "arpa/inet.h", "netdb.h",
};

void check_no_sockets(const FileContext& ctx, std::vector<Violation>& out) {
    if (ctx.module == "serve") return;
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
        const std::string_view trimmed = trim(ctx.code_lines[i]);
        if (!starts_with(trimmed, "#include")) continue;
        for (const auto hdr : kSocketHeaderBans) {
            const std::string needle = "<" + std::string{hdr} + ">";
            if (trimmed.find(needle) == std::string_view::npos) continue;
            out.push_back({std::string{ctx.path}, i + 1, "no-sockets-outside-serve",
                           "'" + needle +
                               "' opens real network I/O outside src/serve/; everything else "
                               "speaks to the world through serve::Connection or stays in the "
                               "simulator",
                           std::string{trim(ctx.raw_lines[i])}});
        }
    }
}

void check_naked_new(const FileContext& ctx, std::vector<Violation>& out) {
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
        const std::string_view code = ctx.code_lines[i];
        const char* what = nullptr;
        if (contains_token(code, "new")) what = "new";
        // `free` is deliberately absent: the repo has legitimate methods named
        // free() (crypto::CostModel::free), and malloc/calloc/realloc already
        // flag the allocating side of any manual-management pair.
        for (const auto* fn : {"malloc", "calloc", "realloc"}) {
            if (contains_token(code, std::string{fn} + "(")) what = fn;
        }
        if (what == nullptr) continue;
        out.push_back({std::string{ctx.path}, i + 1, "naked-new",
                       "raw allocation ('" + std::string{what} +
                           "'); use std::make_unique/containers so ownership is typed",
                       std::string{trim(ctx.raw_lines[i])}});
    }
}

void check_assert_in_parser(const FileContext& ctx, std::vector<Violation>& out) {
    if (ctx.path.find("src/wire/") == std::string_view::npos) return;
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
        if (!contains_token(ctx.code_lines[i], "assert")) continue;
        out.push_back({std::string{ctx.path}, i + 1, "assert-in-parser",
                       "assert() compiles out of release builds; wire parsers must reject "
                       "bad input via Expected::failure",
                       std::string{trim(ctx.raw_lines[i])}});
    }
}

void check_pragma_once(const FileContext& ctx, std::vector<Violation>& out) {
    if (!ctx.is_header) return;
    for (const auto line : ctx.code_lines) {
        if (trim(line) == "#pragma once") return;
    }
    Violation v{std::string{ctx.path}, 1, "pragma-once",
                "header is missing '#pragma once'", ""};
    v.fix_line = 1;
    v.fix_insert = "#pragma once\n\n";
    out.push_back(std::move(v));
}

void check_include_layering(const FileContext& ctx, std::vector<Violation>& out) {
    if (!ctx.in_src || ctx.module.empty()) return;
    const auto it = module_layering().find(ctx.module);
    if (it == module_layering().end()) return;
    // Include paths live inside quotes, which the sanitizer blanks, so this
    // rule reads the raw lines.
    for (std::size_t i = 0; i < ctx.raw_lines.size(); ++i) {
        const std::string_view trimmed = trim(ctx.raw_lines[i]);
        if (!starts_with(trimmed, "#include \"")) continue;
        const std::size_t open = trimmed.find('"');
        const std::size_t close = trimmed.find('"', open + 1);
        if (close == std::string_view::npos) continue;
        const std::string_view inc = trimmed.substr(open + 1, close - open - 1);
        const std::size_t slash = inc.find('/');
        if (slash == std::string_view::npos) continue;
        const std::string_view target = inc.substr(0, slash);
        if (module_layering().find(target) == module_layering().end()) continue;
        if (it->second.count(std::string{target}) != 0) continue;
        out.push_back({std::string{ctx.path}, i + 1, "include-layering",
                       "module '" + ctx.module + "' may not include '" + std::string{target} +
                           "/' (layering: see src/" + ctx.module + "/CMakeLists.txt)",
                       std::string{trim(ctx.raw_lines[i])}});
    }
}

/// True when `text` is valid UTF-8 (ASCII included); reports the byte offset
/// of the first bad sequence otherwise.
std::optional<std::string> utf8_error(std::string_view text) {
    std::size_t i = 0;
    while (i < text.size()) {
        const auto b = static_cast<unsigned char>(text[i]);
        std::size_t extra = 0;
        if (b < 0x80U) {
            i += 1;
            continue;
        } else if (b >= 0xC2U && b <= 0xDFU) {
            extra = 1;
        } else if (b >= 0xE0U && b <= 0xEFU) {
            extra = 2;
        } else if (b >= 0xF0U && b <= 0xF4U) {
            extra = 3;
        } else {
            return "invalid UTF-8 lead byte at offset " + std::to_string(i);
        }
        if (i + extra >= text.size()) {
            return "truncated UTF-8 sequence at offset " + std::to_string(i);
        }
        for (std::size_t k = 1; k <= extra; ++k) {
            const auto c = static_cast<unsigned char>(text[i + k]);
            if (c < 0x80U || c > 0xBFU) {
                return "invalid UTF-8 continuation at offset " + std::to_string(i + k);
            }
        }
        // Reject overlong encodings and surrogate halves.
        const auto c1 = static_cast<unsigned char>(text[i + 1]);
        if ((b == 0xE0U && c1 < 0xA0U) || (b == 0xEDU && c1 > 0x9FU) ||
            (b == 0xF0U && c1 < 0x90U) || (b == 0xF4U && c1 > 0x8FU)) {
            return "non-canonical UTF-8 sequence at offset " + std::to_string(i);
        }
        i += 1 + extra;
    }
    return std::nullopt;
}

/// Reads a source file as text, rejecting unreadable files and non-UTF-8
/// contents with a typed error instead of silently skipping them.
common::Expected<std::string> read_source_file(const std::filesystem::path& path) {
    auto text = common::read_file(path.string());
    if (!text.ok()) return text;
    if (const auto err = utf8_error(text.value())) {
        return common::Expected<std::string>::failure("not valid UTF-8: " + *err);
    }
    return text;
}

/// The files lint_tree() scans: every .cpp/.hpp under the code roots, in
/// sorted path order.
std::vector<std::filesystem::path> collect_source_files(const std::string& root) {
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    for (const char* dir : {"src", "tests", "tools", "bench", "examples"}) {
        const fs::path base = fs::path{root} / dir;
        if (!fs::exists(base)) continue;
        for (const auto& entry : fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file()) continue;
            const std::string ext = entry.path().extension().string();
            if (ext == ".cpp" || ext == ".hpp") files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

}  // namespace

std::vector<std::string> scanned_sources(const std::string& root) {
    std::vector<std::string> out;
    for (const auto& file : collect_source_files(root)) {
        auto text = read_source_file(file);
        if (text) out.push_back(std::move(*text));
    }
    return out;
}

const std::vector<RuleInfo>& rule_catalog() {
    static const std::vector<RuleInfo> kRules = {
        {"sim-determinism",
         "no wall-clock / global PRNG identifiers outside common/time.*"},
        {"no-threads-in-sim",
         "concurrency only in src/exp/ + src/serve/ (threads), "
         "common/log.* (locking), common/ring.* (lock-free SPSC)"},
        {"no-sockets-outside-serve",
         "OS networking headers only in src/serve/ — the simulator can never "
         "touch a real network"},
        {"naked-new", "no raw new/malloc; ownership must be typed"},
        {"assert-in-parser",
         "src/wire/ parsers must validate via Expected, not assert()"},
        {"pragma-once", "every header starts with #pragma once"},
        {"include-layering",
         "src/ modules may only include modules the layering table lists for them"},
        {"untrusted-read-bounds",
         "src/wire/ reads of untrusted bytes need a dominating size/require() check"},
        {"symbol-layering",
         "src/ modules may only name symbols of modules the layering table lists for them"},
        {"no-frame-copy",
         "outside src/wire/, frames flow through FrameBuffer/FrameView — no "
         "EthernetFrame serialize()/parse()"},
    };
    return kRules;
}

std::string strip_comments_and_strings(std::string_view text) {
    std::string out{text};
    for (const Region& region : scan_regions(text)) {
        if (region.kind == RegionKind::kCode) continue;
        for (std::size_t i = region.content_begin;
             i < region.content_end && i < out.size(); ++i) {
            if (out[i] != '\n') out[i] = ' ';
        }
    }
    return out;
}

std::vector<Violation> Linter::lint_source(std::string_view path,
                                           std::string_view text) const {
    const std::string code = strip_comments_and_strings(text);

    FileContext ctx;
    ctx.path = path;
    ctx.raw_lines = split_lines(text);
    ctx.code_lines = split_lines(code);
    ctx.is_header = path.size() >= 4 && path.substr(path.size() - 4) == ".hpp";
    ctx.in_src = starts_with(path, "src/") || path.find("/src/") != std::string_view::npos;
    ctx.module = module_of(path);

    std::vector<Violation> found;
    check_determinism(ctx, found);
    check_no_threads(ctx, found);
    check_no_sockets(ctx, found);
    check_naked_new(ctx, found);
    check_assert_in_parser(ctx, found);
    check_pragma_once(ctx, found);
    check_include_layering(ctx, found);

    const TuIndex tu = build_index(text);
    const SemanticInput sem{path, ctx.module, tu, ctx.raw_lines};
    check_untrusted_read_bounds(sem, found);
    check_symbol_layering(sem, found);
    check_no_frame_copy(sem, found);

    // Apply lint:allow(<rule>) markers from the flagged line or the line
    // above (markers live in comments, so consult the raw text).
    std::vector<Violation> kept;
    for (auto& v : found) {
        std::set<std::string> allowed;
        if (v.line >= 1 && v.line <= ctx.raw_lines.size()) {
            allowed = allow_markers(ctx.raw_lines[v.line - 1]);
            if (v.line >= 2) {
                for (auto& id : allow_markers(ctx.raw_lines[v.line - 2])) allowed.insert(id);
            }
        }
        if (allowed.count(v.rule) != 0 || allowed.count("*") != 0) continue;
        kept.push_back(std::move(v));
    }
    std::sort(kept.begin(), kept.end(), [](const Violation& a, const Violation& b) {
        return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
    });
    return kept;
}

std::vector<Violation> Linter::lint_tree(const std::string& root) {
    namespace fs = std::filesystem;
    files_scanned_ = 0;
    skipped_.clear();
    std::vector<Violation> all;
    for (const auto& file : collect_source_files(root)) {
        const std::string rel = fs::relative(file, root).generic_string();
        auto text = read_source_file(file);
        if (!text) {
            skipped_.push_back({rel, std::move(text).error()});
            continue;
        }
        ++files_scanned_;
        auto found = lint_source(rel, *text);
        all.insert(all.end(), std::make_move_iterator(found.begin()),
                   std::make_move_iterator(found.end()));
    }
    return all;
}

telemetry::Json Linter::report(const std::vector<Violation>& violations,
                               std::string_view root, std::size_t files_scanned,
                               const std::vector<SkippedFile>& skipped) {
    telemetry::Json doc = telemetry::Json::object();
    doc["schema"] = "arpsec.lint-report.v1";
    doc["root"] = std::string{root};
    doc["files_scanned"] = static_cast<std::int64_t>(files_scanned);
    doc["files_skipped"] = static_cast<std::int64_t>(skipped.size());
    doc["violation_count"] = static_cast<std::int64_t>(violations.size());

    telemetry::Json counts = telemetry::Json::object();
    for (const auto& info : rule_catalog()) {
        std::int64_t n = 0;
        for (const auto& v : violations) {
            if (v.rule == info.id) ++n;
        }
        counts[std::string{info.id}] = n;
    }
    doc["counts"] = std::move(counts);

    telemetry::Json skipped_list = telemetry::Json::array();
    for (const auto& s : skipped) {
        telemetry::Json item = telemetry::Json::object();
        item["file"] = s.file;
        item["reason"] = s.reason;
        skipped_list.push_back(std::move(item));
    }
    doc["skipped"] = std::move(skipped_list);

    telemetry::Json list = telemetry::Json::array();
    for (const auto& v : violations) {
        telemetry::Json item = telemetry::Json::object();
        item["file"] = v.file;
        item["line"] = static_cast<std::int64_t>(v.line);
        item["rule"] = v.rule;
        item["message"] = v.message;
        item["snippet"] = v.snippet;
        item["fixable"] = v.fix_line != 0;
        list.push_back(std::move(item));
    }
    doc["violations"] = std::move(list);
    return doc;
}

std::string Linter::apply_fixes(std::string_view text,
                                const std::vector<Violation>& violations) {
    std::vector<std::pair<std::size_t, const std::string*>> fixes;
    for (const Violation& v : violations) {
        if (v.fix_line != 0 && !v.fix_insert.empty()) {
            fixes.emplace_back(v.fix_line, &v.fix_insert);
        }
    }
    std::stable_sort(fixes.begin(), fixes.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });

    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n') starts.push_back(i + 1);
    }
    std::string out{text};
    for (const auto& [line, insert] : fixes) {
        const std::size_t offset = line - 1 < starts.size() ? starts[line - 1] : out.size();
        out.insert(offset, *insert);
    }
    return out;
}

}  // namespace arpsec::lint
