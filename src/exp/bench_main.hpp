#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "exp/executor.hpp"
#include "exp/sweep.hpp"
#include "telemetry/json.hpp"

namespace arpsec::exp {

/// Shared CLI surface of every bench binary. Tables go to stdout and must
/// be byte-identical for any --jobs value; timing and failure reports go
/// to stderr so the determinism gate can diff stdout + artifacts.
struct BenchOptions {
    std::size_t jobs = 1;
    bool smoke = false;          // ctest smoke variant: tiny net, short run
    std::string artifact_path;   // --out FILE (or positional, legacy)
};

/// Parses --jobs N / --smoke / --out FILE plus one optional positional
/// artifact path (kept for callers of the pre-engine benches, e.g.
/// `fig3_detection_latency f3.runs.json`). Exits on --help or bad usage.
[[nodiscard]] BenchOptions parse_bench_args(int argc, char** argv);

/// Shrinks a scenario to smoke proportions: 2 hosts, 12 s simulated with
/// the attack window at 4–9 s. Call from configure() when opts.smoke.
void apply_smoke(core::ScenarioConfig& cfg);

/// run_sweep + wall-clock and per-point failure report on stderr.
[[nodiscard]] SweepOutcome run_bench_sweep(const SweepSpec& spec, const BenchOptions& opt);

/// Writes the artifact when an output path was given, then maps failed
/// points to the exit code: 0 clean, 1 on any failure or write error.
[[nodiscard]] int finish_bench(const BenchOptions& opt, const SweepArtifact& artifact,
                               std::size_t failures);
/// Same exit-code policy for benches that produce no artifact.
[[nodiscard]] int finish_bench(std::size_t failures);

/// First quartile, median and third quartile of repeated measurements
/// (nearest rank; `samples` must not be empty).
struct Quartiles {
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> samples);

/// Appends `run` to the BENCH_*.json perf trajectory at `path`
/// (arpsec.bench-trajectory.v1), creating the file if needed, with the
/// host it ran on as the run's first key "host": nproc, compiler, build
/// type and the checkout's `git describe`. Earlier runs and every other
/// top-level key are kept; a trajectory that holds one run at top level
/// (the format before runs were appended) becomes the first run. Returns
/// false, leaving the file untouched, when it exists but is not a
/// trajectory of `bench`.
[[nodiscard]] bool append_trajectory_run(const std::string& path, const std::string& bench,
                                         const telemetry::Json& run);

/// Failure report for case-map benches: prints every failed slot to
/// stderr, returns the failure count.
template <typename T>
std::size_t report_case_failures(std::string_view label, const std::vector<Outcome<T>>& outs) {
    std::size_t failures = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        if (!outs[i].failed) continue;
        ++failures;
        std::fprintf(stderr, "[bench] %.*s: case %zu failed: %s\n",
                     static_cast<int>(label.size()), label.data(), i, outs[i].error.c_str());
    }
    return failures;
}

}  // namespace arpsec::exp
