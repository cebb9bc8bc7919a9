// Serve throughput — frames/sec through the full online path: a client
// thread encodes `arpsec.stream.v1` records into one end of a Unix-domain
// socketpair (serve::make_pipe), arpsec::serve::Server decodes and shards
// them from the other end, and each shard worker parses and feeds them to
// its arpwatch session. Measured per shard count (1, 2, 4), with
// alert streaming off so the number is intake+detection throughput, not
// JSONL encoding. Each shard count is streamed kRepetitions times, each
// time into a fresh server.
//
// stdout and the sweep artifact (--out, default serve_throughput.runs.json)
// carry the deterministic per-config frame/alert counts; wall-clock
// throughput (median and quartiles of the repetitions) goes to stderr and
// to one host-stamped run appended to the BENCH_serve_throughput.json perf
// trajectory in the working directory. Under --smoke the trace shrinks and
// one lap is streamed; the full run soaks ~1M frames per repetition.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "detect/registry.hpp"
#include "exp/bench_main.hpp"
#include "exp/executor.hpp"
#include "replay/source.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "telemetry/metrics.hpp"
#include "wire/stream_codec.hpp"

using namespace arpsec;

namespace {

constexpr const char* kTrajectoryPath = "BENCH_serve_throughput.json";
constexpr std::size_t kRepetitions = 5;

/// One stream through one fresh server.
struct Repetition {
    std::uint64_t frames = 0;
    std::uint64_t alerts = 0;
    std::uint64_t backpressure_waits = 0;
    double frames_per_second = 0.0;
};

/// Every repetition of one shard count.
struct ConfigResult {
    std::size_t shards = 0;
    std::uint64_t frames = 0;
    std::uint64_t alerts = 0;
    std::uint64_t backpressure_waits = 0;  // median over the repetitions
    exp::Quartiles frames_per_second;
};

/// Streams `laps` copies of the trace into `conn` (timestamps shifted per
/// lap so virtual time stays monotonic), exactly as arpsec-loadgen would.
void stream_trace(serve::Connection& conn, const replay::LabeledTrace& trace,
                  std::size_t laps) {
    wire::Bytes out;
    wire::StreamHello hello;
    hello.seed = trace.seed == 0 ? 1 : trace.seed;
    wire::encode_hello(out, hello);
    std::vector<wire::StreamHostEntry> entries;
    entries.reserve(trace.directory.size());
    for (const auto& host : trace.directory) {
        entries.push_back({host.name, host.ip, host.mac});
    }
    wire::encode_directory(out, entries);
    if (!conn.write_all({out.data(), out.size()})) return;

    const auto span =
        static_cast<std::uint64_t>(trace.last_at().nanos() + 1'000'000);
    constexpr std::size_t kBatch = 1024;
    for (std::size_t lap = 0; lap < laps; ++lap) {
        const std::uint64_t shift = span * lap;
        std::size_t i = 0;
        while (i < trace.frames.size()) {
            out.clear();
            const std::size_t stop = std::min(i + kBatch, trace.frames.size());
            for (; i < stop; ++i) {
                wire::encode_frame(
                    out, static_cast<std::uint64_t>(trace.frames[i].at.nanos()) + shift,
                    {trace.frames[i].bytes.data(), trace.frames[i].bytes.size()});
            }
            if (!conn.write_all({out.data(), out.size()})) return;
        }
    }
    out.clear();
    wire::encode_end(out);
    (void)conn.write_all({out.data(), out.size()});
}

/// Streams the trace `laps` times into a fresh server with `shards`
/// shards; an error text when the stream did not finish cleanly.
common::Expected<Repetition> serve_once(const detect::Registry& registry,
                                        const replay::LabeledTrace& trace, std::size_t laps,
                                        std::size_t shards) {
    using Result = common::Expected<Repetition>;
    serve::ServerOptions options;
    options.schemes = {"arpwatch"};
    options.shards = shards;
    options.ring_capacity = 1 << 16;
    options.stream_alerts = false;  // measure detection, not JSONL encode
    auto server = serve::Server::create(registry, options);
    if (!server.ok()) return Result::failure(server.error());
    auto pipe = serve::make_pipe();
    if (!pipe.ok()) return Result::failure(pipe.error());

    common::Stopwatch watch;
    std::optional<common::Expected<serve::ServeOutcome>> served;
    const std::string peer =
        exp::run_pair([&] { stream_trace(*pipe->client, trace, laps); },
                      [&] { served = server.value()->serve(*pipe->server); });
    const double wall = watch.elapsed_seconds();
    if (!peer.empty()) return Result::failure("client: " + peer);
    const auto& outcome = *served;
    if (!outcome.ok()) return Result::failure(outcome.error());
    if (!outcome.value().ended_by_end_record || !outcome.value().transport_error.empty()) {
        return Result::failure("stream did not finish cleanly");
    }

    Repetition r;
    r.frames = static_cast<std::uint64_t>(outcome.value().summary.find("frames")->as_int());
    r.alerts = static_cast<std::uint64_t>(outcome.value().alerts.size());
    r.backpressure_waits =
        server.value()->metrics().counter("serve.intake.backpressure_waits").value();
    r.frames_per_second = wall > 0.0 ? static_cast<double>(r.frames) / wall : 0.0;
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    auto opt = exp::parse_bench_args(argc, argv);
    if (opt.artifact_path.empty()) opt.artifact_path = "serve_throughput.runs.json";

    replay::ScenarioTraceSource::Options src_opts;
    src_opts.first_seed = 1;
    src_opts.target_frames = opt.smoke ? 1500 : 100000;
    src_opts.jobs = opt.jobs;
    auto trace = replay::ScenarioTraceSource{src_opts}.load();
    if (!trace.ok()) {
        std::fprintf(stderr, "[bench] serve_throughput: %s\n", trace.error().c_str());
        return 1;
    }
    const std::size_t laps = opt.smoke ? 1 : 10;
    const std::uint64_t total_frames =
        static_cast<std::uint64_t>(trace.value().frames.size()) * laps;

    const detect::Registry registry;
    std::size_t failures = 0;
    std::vector<ConfigResult> results;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        ConfigResult r;
        r.shards = shards;
        std::vector<double> fps;
        std::vector<double> waits;
        for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
            const auto once = serve_once(registry, trace.value(), laps, shards);
            if (!once.ok()) {
                std::fprintf(stderr, "[bench] serve_throughput: shards=%zu: %s\n", shards,
                             once.error().c_str());
                ++failures;
                continue;
            }
            // The zero-loss contract: every streamed frame was admitted and
            // processed (a full ring blocks the intake, it never drops).
            if (once->frames != total_frames) {
                std::fprintf(stderr,
                             "[bench] serve_throughput: shards=%zu processed %llu of %llu "
                             "frames — admitted-frame loss\n",
                             shards, static_cast<unsigned long long>(once->frames),
                             static_cast<unsigned long long>(total_frames));
                ++failures;
            }
            if (!fps.empty() && once->alerts != r.alerts) {
                std::fprintf(stderr,
                             "[bench] serve_throughput: shards=%zu raised %llu alerts, the "
                             "first repetition %llu\n",
                             shards, static_cast<unsigned long long>(once->alerts),
                             static_cast<unsigned long long>(r.alerts));
                ++failures;
            }
            r.frames = once->frames;
            r.alerts = once->alerts;
            fps.push_back(once->frames_per_second);
            waits.push_back(static_cast<double>(once->backpressure_waits));
        }
        if (fps.empty()) continue;
        r.frames_per_second = exp::quartiles(fps);
        r.backpressure_waits = static_cast<std::uint64_t>(exp::quartiles(waits).median);
        results.push_back(r);
    }

    core::TextTable table("Serve throughput — streamed frames through sharded arpwatch");
    table.set_headers({"shards", "frames", "alerts"});
    for (const auto& r : results) {
        table.add_row({std::to_string(r.shards), std::to_string(r.frames),
                       std::to_string(r.alerts)});
    }
    table.print();

    for (const auto& r : results) {
        std::fprintf(stderr,
                     "[bench] shards=%zu %12.0f frames/s (q1 %.0f, q3 %.0f over %zu runs; "
                     "median %llu backpressure waits)\n",
                     r.shards, r.frames_per_second.median, r.frames_per_second.q1,
                     r.frames_per_second.q3, kRepetitions,
                     static_cast<unsigned long long>(r.backpressure_waits));
    }

    exp::SweepArtifact artifact("serve_throughput");
    artifact.set_meta("trace_frames",
                      static_cast<std::uint64_t>(trace.value().frames.size()));
    artifact.set_meta("laps", static_cast<std::uint64_t>(laps));
    artifact.set_meta("smoke", opt.smoke);
    telemetry::Json sweep = telemetry::Json::object();
    sweep["name"] = "serve_throughput";
    telemetry::Json sweep_rows = telemetry::Json::array();
    for (const auto& r : results) {
        telemetry::Json row = telemetry::Json::object();
        row["shards"] = static_cast<std::uint64_t>(r.shards);
        row["frames"] = r.frames;
        row["alerts"] = r.alerts;
        sweep_rows.push_back(std::move(row));
    }
    sweep["configs"] = std::move(sweep_rows);
    artifact.add_json(std::move(sweep));

    telemetry::Json run = telemetry::Json::object();
    run["smoke"] = opt.smoke;
    run["frames"] = total_frames;
    run["repetitions"] = static_cast<std::uint64_t>(kRepetitions);
    telemetry::Json rows = telemetry::Json::array();
    for (const auto& r : results) {
        telemetry::Json row = telemetry::Json::object();
        row["shards"] = static_cast<std::uint64_t>(r.shards);
        row["frames_per_second"] = r.frames_per_second.median;
        row["frames_per_second_q1"] = r.frames_per_second.q1;
        row["frames_per_second_q3"] = r.frames_per_second.q3;
        row["alerts"] = r.alerts;
        row["backpressure_waits"] = r.backpressure_waits;
        rows.push_back(std::move(row));
    }
    run["configs"] = std::move(rows);
    if (!exp::append_trajectory_run(kTrajectoryPath, "serve_throughput", run)) {
        std::fprintf(stderr, "[bench] cannot append a run to %s\n", kTrajectoryPath);
        ++failures;
    }

    return exp::finish_bench(opt, artifact, failures);
}
