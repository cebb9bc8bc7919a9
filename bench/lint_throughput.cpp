// Lint throughput — how fast arpsec-lint covers the tree. The linter runs
// on every CI build and inside the pre-commit loop, so its wall-clock cost
// is a budget, not a curiosity: the acceptance bar is a full single-pass
// scan of this repository in under two seconds.
//
// Unlike the sweep benches this one links only arpsec_lint (the linter is
// deliberately outside the arpsec umbrella), so it reads its own flags
// (--root/--smoke/--out). It measures the single-threaded scan CI actually
// runs, so it has no --jobs. stdout is deterministic (counts only); timing
// goes to stderr and the BENCH_lint_throughput.json perf-trajectory point.

#include <cstdio>
#include <string>

#include "common/args.hpp"
#include "common/file.hpp"
#include "common/time.hpp"
#include "lint/linter.hpp"
#include "telemetry/json.hpp"

using namespace arpsec;

namespace {

constexpr const char* kTrajectorySchema = "arpsec.bench-trajectory.v1";

struct Options {
    std::string root = ".";
    std::string out = "BENCH_lint_throughput.json";
    bool smoke = false;
};

int usage(const char* argv0, const std::string& error) {
    std::fprintf(stderr, "%s: %s\nusage: %s [--root DIR] [--smoke] [--out PATH]\n", argv0,
                 error.c_str(), argv0);
    return 2;
}

/// Total newline-terminated lines across the scanned tree, counted the same
/// way the linter walks it — so lines/sec uses the linter's own notion of
/// the corpus.
std::size_t count_lines(const std::string& root);

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    common::ArgReader args{argc, argv};
    while (args.next()) {
        if (args.is("--root")) {
            args.value(opt.root);
        } else if (args.is("--out")) {
            args.value(opt.out);
        } else if (args.is("--smoke")) {
            opt.smoke = true;
        } else {
            args.reject();
        }
    }
    if (!args.ok()) return usage(argv[0], args.error());

    // --smoke: one timed pass (CI latency bound); full: three passes, best
    // wall time, so a cold page cache does not dominate the trajectory.
    const int passes = opt.smoke ? 1 : 3;
    std::size_t files = 0;
    std::size_t violations = 0;
    double best_wall = 0.0;
    for (int pass = 0; pass < passes; ++pass) {
        lint::Linter linter;
        common::Stopwatch watch;
        const auto vs = linter.lint_tree(opt.root);
        const double wall = watch.elapsed_seconds();
        files = linter.files_scanned();
        violations = vs.size();
        if (pass == 0 || wall < best_wall) best_wall = wall;
        std::fprintf(stderr, "[bench] pass %d: %zu files in %.3f s\n", pass + 1,
                     files, wall);
    }
    if (files == 0) {
        std::fprintf(stderr, "[bench] lint_throughput: no sources under %s\n",
                     opt.root.c_str());
        return 2;
    }

    const std::size_t lines = count_lines(opt.root);
    const double files_per_second = static_cast<double>(files) / best_wall;
    const double lines_per_second = static_cast<double>(lines) / best_wall;

    // Deterministic scorecard: corpus size and findings, never timing.
    std::printf("lint_throughput: %zu files, %zu lines, %zu violation(s)\n", files,
                lines, violations);

    std::fprintf(stderr, "[bench] lint_throughput: %.0f files/s, %.0f lines/s (%.3f s best of %d)\n",
                 files_per_second, lines_per_second, best_wall, passes);

    telemetry::Json traj = telemetry::Json::object();
    traj["schema"] = kTrajectorySchema;
    traj["bench"] = "lint_throughput";
    traj["smoke"] = opt.smoke;
    traj["files"] = static_cast<std::uint64_t>(files);
    traj["lines"] = static_cast<std::uint64_t>(lines);
    traj["violations"] = static_cast<std::uint64_t>(violations);
    traj["wall_seconds"] = best_wall;
    traj["files_per_second"] = files_per_second;
    traj["lines_per_second"] = lines_per_second;
    if (auto written = common::write_file(opt.out, traj.dump(2) + "\n"); !written.ok()) {
        std::fprintf(stderr, "[bench] %s\n", written.error().c_str());
        return 1;
    }
    return 0;
}

namespace {

std::size_t count_lines(const std::string& root) {
    std::size_t lines = 0;
    for (const std::string& text : lint::scanned_sources(root)) {
        for (const char c : text) {
            if (c == '\n') ++lines;
        }
        if (!text.empty() && text.back() != '\n') ++lines;
    }
    return lines;
}

}  // namespace
