#include "exp/bench_main.hpp"

#include <cstdlib>
#include <cstring>

#include "common/time.hpp"

namespace arpsec::exp {

namespace {

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

int finish_bench(std::size_t failures) {
    if (failures > 0) {
        std::fprintf(stderr, "[bench] %zu point(s) failed\n", failures);
        return 1;
    }
    return 0;
}

}  // namespace arpsec::exp
