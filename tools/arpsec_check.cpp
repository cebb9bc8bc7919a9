// arpsec-check — deterministic simulation checker for the ARPSEC tree.
//
// Draws randomized scenarios (topology + adversarial ARP schedule) from a
// seed range, runs each through the full simulator with the scheme under
// test deployed, and asserts cross-cutting invariants after every event
// step: sim conservation, telemetry consistency, no silent poisoning under
// detection schemes, no admitted poisoning under prevention schemes. Every
// failure is delta-debugged down to a minimal event schedule and written
// as an arpsec.check-artifact.v1 JSON repro that --replay re-executes
// bit-for-bit.
//
//   $ arpsec-check --seeds 50 --jobs 8              # sweep the builtin schemes
//   $ arpsec-check --schemes arpwatch,anticap       # restrict the pool
//   $ arpsec-check --plant-bug --artifact-dir out/  # self-test: find the bug
//   $ arpsec-check --replay out/check-seed-17.json  # re-run a recorded repro
//
// The report is byte-identical for every --jobs value: workers pull seeds
// from an atomic counter but results are collected in seed order.

#include <cstdio>
#include <string>

#include "check/checker.hpp"
#include "check/planted.hpp"
#include "common/args.hpp"
#include "common/file.hpp"
#include "common/version.hpp"
#include "exp/executor.hpp"

namespace {

/// Upper bound of --seeds: the report keeps one result per seed.
constexpr std::size_t kMaxSeeds = 1'000'000;

int usage(const char* argv0, const std::string& error = {}) {
    if (!error.empty()) std::fprintf(stderr, "arpsec-check: %s\n", error.c_str());
    std::fprintf(
        stderr,
        "usage: %s [--seeds N] [--first-seed S] [--jobs J] [--schemes a,b,...]\n"
        "          [--plant-bug] [--no-shrink] [--out PATH] [--artifact-dir DIR]\n"
        "          [--replay PATH [--planted]]\n"
        "  --seeds N         scenarios to check, 1-1000000 (default 20)\n"
        "  --first-seed S    first seed of the range, 0-2^64-1 (default 1)\n"
        "  --jobs J          worker threads, 1-256 (default 1; the report is\n"
        "                    identical for any J)\n"
        "  --schemes LIST    comma-separated scheme pool (default: all registered)\n"
        "  --plant-bug       self-test against a fault-injected scheme\n"
        "  --no-shrink       keep failing schedules unshrunk\n"
        "  --out PATH        write the text report to PATH as well as stdout\n"
        "  --artifact-dir D  write check-seed-<seed>.json repros for failures\n"
        "  --replay PATH     re-execute a recorded artifact (exit 1 if it fails)\n"
        "  --planted         with --replay: the artifact used --plant-bug\n"
        "  --version         print the build's git describe string and exit\n",
        argv0);
    return 2;
}

int replay(const std::string& path, bool planted) {
    const auto text = arpsec::common::read_file(path);
    if (!text.ok()) {
        std::fprintf(stderr, "arpsec-check: %s\n", text.error().c_str());
        return 2;
    }
    const auto result = arpsec::check::replay_artifact(text.value(), planted);
    if (!result.ok()) {
        std::fprintf(stderr, "arpsec-check: %s\n", result.error().c_str());
        return 2;
    }
    const auto& outcome = result.value().outcome;
    std::printf("replayed seed %llu scheme=%s events=%zu frames=%llu alerts=%zu\n",
                static_cast<unsigned long long>(result.value().scenario.seed),
                result.value().scenario.scheme.c_str(), result.value().scenario.events.size(),
                static_cast<unsigned long long>(outcome.frames), outcome.alerts);
    for (const auto& v : outcome.violations) {
        std::printf("  [%s] %s\n", v.oracle.c_str(), v.detail.c_str());
    }
    if (outcome.passed()) {
        std::printf("replay: no violation reproduced\n");
        return 0;
    }
    std::printf("replay: violation reproduced\n");
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    arpsec::check::CheckOptions opts;
    std::string out_path;
    std::string artifact_dir;
    std::string replay_path;
    bool replay_planted = false;

    arpsec::common::ArgReader args{argc, argv};
    while (args.next()) {
        if (args.is("--seeds")) {
            args.number(opts.seeds, 1, kMaxSeeds);
        } else if (args.is("--first-seed")) {
            args.number(opts.first_seed);
        } else if (args.is("--jobs")) {
            args.number(opts.jobs, 1, arpsec::exp::kMaxJobs);
        } else if (args.is("--schemes")) {
            args.list(opts.gen.schemes);
        } else if (args.is("--plant-bug")) {
            opts.plant_bug = true;
        } else if (args.is("--no-shrink")) {
            opts.shrink = false;
        } else if (args.is("--out")) {
            args.value(out_path);
        } else if (args.is("--artifact-dir")) {
            args.value(artifact_dir);
        } else if (args.is("--replay")) {
            args.value(replay_path);
        } else if (args.is("--planted")) {
            replay_planted = true;
        } else if (args.is("--version")) {
            std::puts(arpsec::common::tool_version_line("check").c_str());
            return 0;
        } else {
            args.reject();
        }
    }
    if (!args.ok()) return usage(argv[0], args.error());

    if (!replay_path.empty()) return replay(replay_path, replay_planted);

    if (opts.gen.schemes.empty() || (opts.gen.schemes.size() == 1 &&
                                     opts.gen.schemes.front() == "none" && !opts.plant_bug)) {
        // Default pool: every registered scheme.
        opts.gen.schemes.clear();
        const arpsec::detect::Registry registry;
        for (const auto& entry : registry.entries()) {
            opts.gen.schemes.push_back(entry.name);
        }
    }

    const arpsec::check::CheckReport report = arpsec::check::run_check(opts);
    const std::string text = report.text();
    std::fputs(text.c_str(), stdout);

    if (!out_path.empty()) {
        if (auto written = arpsec::common::write_file(out_path, text); !written.ok()) {
            std::fprintf(stderr, "arpsec-check: %s\n", written.error().c_str());
            return 2;
        }
    }
    if (!artifact_dir.empty()) {
        for (const auto& r : report.results) {
            if (!r.failed || !r.error.empty()) continue;
            const std::string path =
                artifact_dir + "/check-seed-" + std::to_string(r.seed) + ".json";
            if (auto written = arpsec::common::write_file(path, r.artifact().dump(2) + "\n");
                !written.ok()) {
                std::fprintf(stderr, "arpsec-check: %s\n", written.error().c_str());
                return 2;
            }
            std::fprintf(stderr, "arpsec-check: wrote repro %s\n", path.c_str());
        }
    }
    return report.failures() == 0 ? 0 : 1;
}
