// arpsec-lint — repo-native static analysis for the ARPSEC tree.
//
// Enforces the invariants the compiler cannot see; what the compiler can
// hold (a discarded Expected is a -Werror=unused-result build error, a
// switch missing an enumerator a -Werror=switch / -Werror=switch-enum one)
// has no rule here. Every rule reads one file at a time. v1 rules are
// textual (sim determinism, thread and socket confinement, parser hygiene,
// typed ownership, #pragma once, include layering); v2 rules run on a token
// stream and per-TU index (untrusted-read-bounds dataflow in src/wire/,
// symbol-level layering, no frame copies). Registered as a CTest test, so
// tier-1 verify fails on any violation not recorded in the committed
// baseline.
//
//   $ arpsec-lint --root .                 # scan the repo, GCC-style output
//   $ arpsec-lint --root . --json lint.json --sarif lint.sarif
//   $ arpsec-lint --root . --baseline arpsec.lint-baseline.json
//   $ arpsec-lint --root . --update-baseline arpsec.lint-baseline.json
//   $ arpsec-lint --root . --fix           # apply mechanical autofixes
//   $ arpsec-lint --list-rules

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/version.hpp"
#include "lint/baseline.hpp"
#include "lint/linter.hpp"
#include "lint/sarif.hpp"

namespace {

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--root DIR] [--json PATH] [--sarif PATH] [--baseline PATH]\n"
        "       [--update-baseline PATH] [--fix] [--list-rules] [--quiet] [--version]\n"
        "  --root DIR             repository root to scan (default: .)\n"
        "  --json PATH            write an arpsec.lint-report.v1 JSON report\n"
        "  --sarif PATH           write a SARIF 2.1.0 report (GitHub code scanning)\n"
        "  --baseline PATH        suppress violations recorded in this snapshot;\n"
        "                         exit 1 only on new ones\n"
        "  --update-baseline PATH rewrite the snapshot from the current findings\n"
        "  --fix                  apply mechanical autofixes in place\n"
        "  --list-rules           print the rule catalog and exit\n"
        "  --quiet                suppress per-violation output\n"
        "  --version              print the build's git describe string and exit\n",
        argv0);
    return 2;
}

bool write_json(const std::string& path, const arpsec::telemetry::Json& doc) {
    std::ofstream out{path};
    if (!out) {
        std::fprintf(stderr, "arpsec-lint: cannot write '%s'\n", path.c_str());
        return false;
    }
    out << doc.dump(2) << "\n";
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    std::string root = ".";
    std::string json_path;
    std::string sarif_path;
    std::string baseline_path;
    std::string update_baseline_path;
    bool fix = false;
    bool list_rules = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (arg == "--root") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            root = v;
        } else if (arg == "--json") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            json_path = v;
        } else if (arg == "--sarif") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            sarif_path = v;
        } else if (arg == "--baseline") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            baseline_path = v;
        } else if (arg == "--update-baseline") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            update_baseline_path = v;
        } else if (arg == "--fix") {
            fix = true;
        } else if (arg == "--list-rules") {
            list_rules = true;
        } else if (arg == "--version") {
            std::puts(arpsec::common::tool_version_line("lint").c_str());
            return 0;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }

    if (list_rules) {
        for (const auto& info : arpsec::lint::rule_catalog()) {
            std::printf("%-22s %s\n", std::string{info.id}.c_str(),
                        std::string{info.summary}.c_str());
        }
        return 0;
    }

    arpsec::lint::Linter linter;
    auto violations = linter.lint_tree(root);
    if (linter.files_scanned() == 0) {
        std::fprintf(stderr, "arpsec-lint: no sources found under '%s' (wrong --root?)\n",
                     root.c_str());
        return 2;
    }

    if (fix) {
        std::map<std::string, std::vector<arpsec::lint::Violation>> by_file;
        for (const auto& v : violations) {
            if (v.fix_line != 0) by_file[v.file].push_back(v);
        }
        std::size_t fixed_files = 0;
        for (const auto& [file, fixes] : by_file) {
            const std::filesystem::path path = std::filesystem::path{root} / file;
            std::ifstream in{path, std::ios::binary};
            if (!in) continue;
            std::ostringstream buf;
            buf << in.rdbuf();
            in.close();
            const std::string fixed = arpsec::lint::Linter::apply_fixes(buf.str(), fixes);
            std::ofstream out{path, std::ios::binary};
            if (!out) {
                std::fprintf(stderr, "arpsec-lint: cannot rewrite '%s'\n",
                             path.string().c_str());
                return 2;
            }
            out << fixed;
            ++fixed_files;
        }
        std::fprintf(stderr, "arpsec-lint: applied autofixes in %zu file(s); re-scanning\n",
                     fixed_files);
        violations = linter.lint_tree(root);
    }

    if (!update_baseline_path.empty()) {
        const auto snapshot = arpsec::lint::Baseline::from_violations(violations);
        if (!write_json(update_baseline_path, snapshot.to_json())) return 2;
        std::fprintf(stderr, "arpsec-lint: baseline '%s' updated (%zu entries)\n",
                     update_baseline_path.c_str(), snapshot.size());
    }

    // With a baseline, only findings absent from the snapshot gate the exit
    // code (and the reports, so CI artifacts show actionable items only).
    std::size_t baselined = 0;
    if (!baseline_path.empty()) {
        auto loaded = arpsec::lint::Baseline::load(baseline_path);
        if (!loaded) {
            std::fprintf(stderr, "arpsec-lint: %s\n", loaded.error().c_str());
            return 2;
        }
        auto fresh = loaded->filter_new(violations);
        baselined = violations.size() - fresh.size();
        violations = std::move(fresh);
    }

    if (!json_path.empty()) {
        const auto report = arpsec::lint::Linter::report(
            violations, root, linter.files_scanned(), linter.skipped());
        if (!write_json(json_path, report)) return 2;
    }
    if (!sarif_path.empty()) {
        if (!write_json(sarif_path, arpsec::lint::sarif_report(violations))) return 2;
    }

    if (!quiet) {
        for (const auto& v : violations) {
            std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                         v.message.c_str());
            if (!v.snippet.empty()) std::fprintf(stderr, "    %s\n", v.snippet.c_str());
        }
        for (const auto& s : linter.skipped()) {
            std::fprintf(stderr, "%s: skipped (%s)\n", s.file.c_str(), s.reason.c_str());
        }
    }
    std::fprintf(stderr,
                 "arpsec-lint: %zu file(s) scanned, %zu skipped, %zu violation(s)%s\n",
                 linter.files_scanned(), linter.skipped().size(), violations.size(),
                 baselined != 0
                     ? (" (" + std::to_string(baselined) + " baselined)").c_str()
                     : "");
    return violations.empty() ? 0 : 1;
}
