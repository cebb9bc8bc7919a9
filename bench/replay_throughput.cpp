// Replay throughput — the repo's first measured-frames/sec workload: a
// large generated trace (100k frames; ~1.5k under --smoke) is replayed
// through every registered scheme from the offline monitor vantage.
//
// stdout carries only the deterministic scorecard (byte-identical for any
// --jobs), and so does the sweep artifact (--out, default
// replay_throughput.runs.json): the arpsec.replay-artifact.v2 scores. The
// end-to-end throughput (trace frames over the run_all wall of five
// replays: median and quartiles) goes to stderr and to one host-stamped
// run appended to the BENCH_replay_throughput.json perf trajectory in the
// working directory. The trace is also written to the working directory as
// a pcap plus sidecar, and each of the five repetitions times
// PcapFileSource::load of it: the load layer, reported beside the replay
// figure.

#include <cstdio>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "exp/bench_main.hpp"
#include "replay/engine.hpp"
#include "replay/source.hpp"

using namespace arpsec;

namespace {

constexpr const char* kTrajectoryPath = "BENCH_replay_throughput.json";
constexpr const char* kPcapPath = "replay_throughput.pcap";
constexpr const char* kLabelsPath = "replay_throughput.pcap.labels.json";

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

    const auto wrote = replay::write_trace(trace.value(), kPcapPath, kLabelsPath,
                                           "replay_throughput");
    if (!wrote.ok()) {
        std::fprintf(stderr, "[bench] replay_throughput: %s\n", wrote.error().c_str());
        return 1;
    }

    const detect::Registry registry;
    std::vector<std::string> schemes;
    for (const auto& entry : registry.entries()) schemes.push_back(entry.name);

    // A smoke replay lasts a few ms, too short to time once on a shared
    // host: each figure is the median of kRuns identical repetitions. The
    // scorecard comes from the first; every run gives the same one. The
    // replay runs on the in-memory trace, so the load does not change it.
    constexpr std::size_t kRuns = 5;
    const replay::Engine engine{registry};
    std::vector<exp::Outcome<replay::SchemeScore>> outcomes;
    std::vector<double> walls;
    std::vector<double> loads;
    for (std::size_t r = 0; r < kRuns; ++r) {
        {  // the loaded copy is freed before the replay is timed
            common::Stopwatch load_watch;
            const auto loaded = replay::PcapFileSource{kPcapPath, kLabelsPath}.load();
            loads.push_back(load_watch.elapsed_seconds());
            if (!loaded.ok()) {
                std::fprintf(stderr, "[bench] replay_throughput: %s\n",
                             loaded.error().c_str());
                return 1;
            }
        }
        common::Stopwatch watch;
        auto run = engine.run_all(trace.value(), schemes, opt.jobs);
        walls.push_back(watch.elapsed_seconds());
        if (r == 0) outcomes = std::move(run);
    }
    std::remove(kPcapPath);
    std::remove(kLabelsPath);
    const exp::Quartiles wall = exp::quartiles(walls);
    const double load_seconds = exp::quartiles(loads).median;
    std::size_t failures = exp::report_case_failures("replay_throughput", outcomes);

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

    const std::size_t frames = trace.value().frames.size();
    const auto per_second = [frames](double seconds) {
        return seconds > 0.0 ? static_cast<double>(frames) / seconds : 0.0;
    };
    const double frames_per_second = per_second(wall.median);
    const double load_ns_per_frame =
        frames > 0 ? load_seconds * 1e9 / static_cast<double>(frames) : 0.0;
    std::fprintf(stderr,
                 "[bench] replay_throughput: %zu frames x %zu schemes in %.4f s = %.0f "
                 "frames/s (--jobs %zu); pcap load %.4f s = %.0f ns/frame\n",
                 frames, scores.size(), wall.median, frames_per_second, opt.jobs,
                 load_seconds, load_ns_per_frame);

    exp::SweepArtifact artifact("replay_throughput");
    artifact.set_meta("trace_frames", static_cast<std::uint64_t>(frames));
    artifact.set_meta("smoke", opt.smoke);
    artifact.add_json(replay::Engine::artifact(trace.value(), scores, "replay_throughput"));

    // Perf-trajectory run: end-to-end frames/sec (trace frames over the
    // median run_all wall, with the quartiles; the slower wall quartile is
    // the lower frames/s one) for run-over-run comparison, the median pcap
    // load, plus per-scheme quality.
    telemetry::Json run = telemetry::Json::object();
    run["smoke"] = opt.smoke;
    run["jobs"] = static_cast<std::uint64_t>(opt.jobs);
    run["frames"] = static_cast<std::uint64_t>(frames);
    run["repetitions"] = static_cast<std::uint64_t>(kRuns);
    run["wall_seconds"] = wall.median;
    run["frames_per_second"] = frames_per_second;
    run["frames_per_second_q1"] = per_second(wall.q3);
    run["frames_per_second_q3"] = per_second(wall.q1);
    run["load_seconds"] = load_seconds;
    run["load_ns_per_frame"] = load_ns_per_frame;
    telemetry::Json rows = telemetry::Json::array();
    for (const auto& s : scores) {
        telemetry::Json row = telemetry::Json::object();
        row["scheme"] = s.scheme;
        row["precision"] = s.precision;
        row["recall"] = s.recall;
        rows.push_back(std::move(row));
    }
    run["schemes"] = std::move(rows);
    if (!exp::append_trajectory_run(kTrajectoryPath, "replay_throughput", run)) {
        std::fprintf(stderr, "[bench] cannot append a run to %s\n", kTrajectoryPath);
        ++failures;
    }

    return exp::finish_bench(opt, artifact, failures);
}
