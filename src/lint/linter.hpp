#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace arpsec::lint {

/// One rule violation at a specific source location. When the rule knows a
/// mechanical remedy it attaches one as an insertion: `fix_insert` goes in
/// front of (1-based) line `fix_line`. `fix_line == 0` means no autofix.
struct Violation {
    std::string file;     // repo-relative path, forward slashes
    std::size_t line = 0; // 1-based
    std::string rule;     // rule id, e.g. "sim-determinism"
    std::string message;  // human-readable explanation
    std::string snippet;  // the offending source line, trimmed
    std::size_t fix_line = 0;
    std::string fix_insert{};  // `{}`: rules omit it without -Wmissing-field-initializers
};

/// A file lint_tree() could not lint (unreadable, invalid UTF-8) — surfaced
/// in the report envelope instead of silently shrinking coverage.
struct SkippedFile {
    std::string file;
    std::string reason;
};

/// Rule metadata for --list-rules and the report envelope.
struct RuleInfo {
    std::string_view id;
    std::string_view summary;
};

/// Every rule the engine enforces, in report order.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();

/// Repo-native static analysis. v1 rules are textual scans over comment- and
/// string-stripped source; v2 rules (untrusted-read-bounds, symbol-layering,
/// no-frame-copy) run on the token stream and the per-TU index. Every rule
/// reads one file at a time. `// lint:allow(<rule>)` on the offending line
/// or the line above suppresses a finding.
class Linter {
public:
    /// Lints one translation unit given as text. `path` is the repo-relative
    /// path (e.g. "src/wire/arp_packet.cpp") and selects which rules apply.
    [[nodiscard]] std::vector<Violation> lint_source(std::string_view path,
                                                     std::string_view text) const;

    /// Walks src/, tests/, tools/, bench/, and examples/ under `root` and
    /// lints every .cpp/.hpp file with lint_source(), in sorted path order,
    /// reading each file only while it is linted.
    [[nodiscard]] std::vector<Violation> lint_tree(const std::string& root);

    /// Number of files linted by the last lint_tree() call.
    [[nodiscard]] std::size_t files_scanned() const { return files_scanned_; }

    /// Files the last lint_tree() call had to skip, with reasons.
    [[nodiscard]] const std::vector<SkippedFile>& skipped() const { return skipped_; }

    /// Builds the arpsec.lint-report.v1 JSON envelope.
    [[nodiscard]] static telemetry::Json report(const std::vector<Violation>& violations,
                                                std::string_view root,
                                                std::size_t files_scanned,
                                                const std::vector<SkippedFile>& skipped = {});

    /// Applies the attached autofixes (fix_line/fix_insert) for ONE file's
    /// violations to that file's text and returns the fixed text. Insertions
    /// are applied bottom-up so earlier fixes do not shift later ones.
    [[nodiscard]] static std::string apply_fixes(std::string_view text,
                                                 const std::vector<Violation>& violations);

private:
    std::size_t files_scanned_ = 0;
    std::vector<SkippedFile> skipped_;
};

/// Contents of every source file lint_tree() would scan under `root`,
/// unreadable/non-UTF-8 files omitted. Exposed so the throughput bench
/// measures lines/sec over the linter's own corpus.
[[nodiscard]] std::vector<std::string> scanned_sources(const std::string& root);

/// Replaces comment bodies and string/char literal contents with spaces while
/// preserving line structure, so rules match code, not prose. Built on the
/// same region scanner as the lexer (see lexer.hpp), so the two cannot
/// disagree about raw strings, custom delimiters, or digit separators.
/// Exposed for tests.
[[nodiscard]] std::string strip_comments_and_strings(std::string_view text);

}  // namespace arpsec::lint
