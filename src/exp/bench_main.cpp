#include "exp/bench_main.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/time.hpp"
#include "common/version.hpp"

namespace arpsec::exp {

namespace {

constexpr const char* kTrajectorySchema = "arpsec.bench-trajectory.v1";

[[noreturn]] void usage(const char* prog, int code) {
    std::FILE* out = code == 0 ? stdout : stderr;
    std::fprintf(out,
                 "usage: %s [--jobs N] [--smoke] [--out FILE] [FILE]\n"
                 "  --jobs N     worker threads for the sweep (default 1; output is\n"
                 "               byte-identical for every N)\n"
                 "  --smoke      tiny fast variant for ctest (2 hosts, 12s window)\n"
                 "  --out FILE   write the arpsec.sweep-artifact.v1 JSON to FILE\n"
                 "               (a bare positional FILE is accepted too)\n",
                 prog);
    std::exit(code);
}

std::size_t parse_count(const char* prog, const char* text) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || v == 0) {
        std::fprintf(stderr, "%s: bad count '%s'\n", prog, text);
        std::exit(2);
    }
    return static_cast<std::size_t>(v);
}

const char* compiler() {
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

bool is_string(const telemetry::Json* j, const std::string& value) {
    return j != nullptr && j->is_string() && j->as_string() == value;
}

}  // namespace

BenchOptions parse_bench_args(int argc, char** argv) {
    BenchOptions opt;
    const char* prog = argc > 0 ? argv[0] : "bench";
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            opt.jobs = parse_count(prog, argv[++i]);
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            opt.artifact_path = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            usage(prog, 0);
        } else if (!arg.empty() && arg[0] != '-' && opt.artifact_path.empty()) {
            opt.artifact_path = arg;
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n", prog, argv[i]);
            usage(prog, 2);
        }
    }
    return opt;
}

void apply_smoke(core::ScenarioConfig& cfg) {
    cfg.host_count = 2;
    cfg.duration = common::Duration::seconds(12);
    cfg.attack_start = common::Duration::seconds(4);
    cfg.attack_stop = common::Duration::seconds(9);
}

SweepOutcome run_bench_sweep(const SweepSpec& spec, const BenchOptions& opt) {
    common::Stopwatch sw;
    SweepOutcome outcome = run_sweep(spec, SweepOptions{opt.jobs});
    std::fprintf(stderr, "[bench] sweep '%s': %zu points, jobs=%zu, %.2fs wall\n",
                 spec.name.c_str(), outcome.points.size(), opt.jobs, sw.elapsed_seconds());
    for (const auto& pr : outcome.points) {
        if (!pr.failed) continue;
        std::fprintf(stderr, "[bench] sweep '%s': point %zu (%s seed=%llu) failed: %s\n",
                     spec.name.c_str(), pr.point.index, pr.point.scheme.c_str(),
                     static_cast<unsigned long long>(pr.point.seed), pr.error.c_str());
    }
    return outcome;
}

int finish_bench(const BenchOptions& opt, const SweepArtifact& artifact, std::size_t failures) {
    if (!opt.artifact_path.empty()) {
        if (!artifact.write(opt.artifact_path)) {
            std::fprintf(stderr, "[bench] failed to write artifact %s\n",
                         opt.artifact_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "[bench] wrote %s (%zu sweeps)\n", opt.artifact_path.c_str(),
                     artifact.sweep_count());
    }
    return finish_bench(failures);
}

Quartiles quartiles(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return {samples[n / 4], samples[n / 2], samples[3 * n / 4]};
}

bool append_trajectory_run(const std::string& path, const std::string& bench,
                           const telemetry::Json& run) {
    telemetry::Json doc = telemetry::Json::object();
    doc["schema"] = kTrajectorySchema;
    doc["bench"] = bench;
    if (std::ifstream in{path}; in) {
        std::ostringstream text;
        text << in.rdbuf();
        const auto old = telemetry::Json::parse(text.str());
        if (!old.has_value() || !is_string(old->find("schema"), kTrajectorySchema) ||
            !is_string(old->find("bench"), bench)) {
            return false;
        }
        if (const telemetry::Json* runs = old->find("runs"); runs == nullptr) {
            doc["runs"].push_back(*old);
        } else if (runs->is_array()) {
            doc = *old;
        } else {
            return false;
        }
    }
    telemetry::Json stamped = telemetry::Json::object();
    telemetry::Json& host = stamped["host"];
    host["nproc"] = static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
    host["compiler"] = compiler();
    host["build_type"] = ARPSEC_BUILD_TYPE;
    host["version"] = common::version_string();
    for (const auto& [key, value] : run.as_object()) stamped[key] = value;
    doc["runs"].push_back(std::move(stamped));
    std::ofstream out{path, std::ios::trunc};
    out << doc.dump(2) << "\n";
    return static_cast<bool>(out);
}

int finish_bench(std::size_t failures) {
    if (failures > 0) {
        std::fprintf(stderr, "[bench] %zu point(s) failed\n", failures);
        return 1;
    }
    return 0;
}

}  // namespace arpsec::exp
