// Replay throughput — the repo's first measured-frames/sec workload: a
// large generated trace (100k frames; ~1.5k under --smoke) is replayed
// through every registered scheme from the offline monitor vantage.
//
// stdout carries only the deterministic scorecard (byte-identical for any
// --jobs); wall-clock throughput goes to stderr, the sweep artifact (--out,
// default replay_throughput.runs.json), and the BENCH_replay_throughput.json
// perf-trajectory point.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "exp/bench_main.hpp"
#include "replay/engine.hpp"
#include "replay/source.hpp"

using namespace arpsec;

namespace {

constexpr const char* kTrajectoryPath = "BENCH_replay_throughput.json";
constexpr const char* kTrajectorySchema = "arpsec.bench-trajectory.v1";

}  // namespace

int main(int argc, char** argv) {
    auto opt = exp::parse_bench_args(argc, argv);
    if (opt.artifact_path.empty()) opt.artifact_path = "replay_throughput.runs.json";

    replay::ScenarioTraceSource::Options src_opts;
    src_opts.first_seed = 1;
    src_opts.target_frames = opt.smoke ? 1500 : 100000;
    src_opts.jobs = opt.jobs;
    auto trace = replay::ScenarioTraceSource{src_opts}.load();
    if (!trace.ok()) {
        std::fprintf(stderr, "[bench] replay_throughput: %s\n", trace.error().c_str());
        return 1;
    }

    const detect::Registry registry;
    std::vector<std::string> schemes;
    for (const auto& entry : registry.entries()) schemes.push_back(entry.name);

    common::Stopwatch watch;
    const replay::Engine engine{registry};
    const auto outcomes = engine.run_all(trace.value(), schemes, opt.jobs);
    const double wall = watch.elapsed_seconds();
    const std::size_t failures = exp::report_case_failures("replay_throughput", outcomes);

    std::vector<replay::SchemeScore> scores;
    for (const auto& o : outcomes) {
        if (!o.failed) scores.push_back(o.value);
    }

    core::TextTable table("Replay throughput — every scheme vs one labeled trace");
    table.set_headers(
        {"scheme", "frames", "alerts", "TP", "FP", "detected", "precision", "recall"});
    for (const auto& s : scores) {
        table.add_row({s.scheme, std::to_string(s.frames), std::to_string(s.alerts),
                       std::to_string(s.true_positive_alerts),
                       std::to_string(s.false_positive_alerts),
                       std::to_string(s.detected_attacks), core::fmt_double(s.precision, 3),
                       core::fmt_double(s.recall, 3)});
    }
    table.print();

    for (const auto& s : scores) {
        std::fprintf(stderr, "[bench] %-20s %10.0f frames/s (%.3f s)\n", s.scheme.c_str(),
                     s.frames_per_second, s.wall_seconds);
    }
    std::fprintf(stderr, "[bench] replay_throughput: %zu frames x %zu schemes in %.2f s\n",
                 trace.value().frames.size(), scores.size(), wall);

    exp::SweepArtifact artifact("replay_throughput");
    artifact.set_meta("trace_frames",
                      static_cast<std::uint64_t>(trace.value().frames.size()));
    artifact.set_meta("smoke", opt.smoke);
    artifact.add_json(replay::Engine::artifact(trace.value(), scores, "replay_throughput"));

    // Perf-trajectory point: per-scheme frames/sec for run-over-run
    // comparison. Written unconditionally next to the sweep artifact.
    telemetry::Json traj = telemetry::Json::object();
    traj["schema"] = kTrajectorySchema;
    traj["bench"] = "replay_throughput";
    traj["smoke"] = opt.smoke;
    traj["frames"] = static_cast<std::uint64_t>(trace.value().frames.size());
    telemetry::Json rows = telemetry::Json::array();
    for (const auto& s : scores) {
        telemetry::Json row = telemetry::Json::object();
        row["scheme"] = s.scheme;
        row["frames_per_second"] = s.frames_per_second;
        row["precision"] = s.precision;
        row["recall"] = s.recall;
        rows.push_back(std::move(row));
    }
    traj["schemes"] = std::move(rows);
    {
        std::ofstream out{kTrajectoryPath};
        if (out) {
            out << traj.dump(2) << "\n";
        } else {
            std::fprintf(stderr, "[bench] cannot write %s\n", kTrajectoryPath);
        }
    }

    return exp::finish_bench(opt, artifact, failures);
}
