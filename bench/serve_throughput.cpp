// Serve throughput — frames/sec through the full online path: a client
// thread encodes `arpsec.stream.v1` records into one end of a Unix-domain
// socketpair (serve::make_pipe), arpsec::serve::Server decodes and shards
// them from the other end, and each shard worker parses and feeds them to
// its arpwatch session. Measured per shard count (1, 2, 4), with
// alert streaming off so the number is intake+detection throughput, not
// JSONL encoding.
//
// stdout carries the deterministic per-config frame/alert counts;
// wall-clock throughput goes to stderr, the sweep artifact (--out, default
// serve_throughput.runs.json), and one run appended to the
// BENCH_serve_throughput.json perf trajectory in the working directory,
// stamped with the host (nproc, compiler, build type, git describe). Under
// --smoke the trace shrinks and one lap is streamed; the full run soaks ~1M
// frames per shard configuration.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/version.hpp"
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
constexpr const char* kTrajectorySchema = "arpsec.bench-trajectory.v1";

struct ConfigResult {
    std::size_t shards = 0;
    std::uint64_t frames = 0;
    std::uint64_t alerts = 0;
    std::uint64_t backpressure_waits = 0;
    double wall_seconds = 0.0;
    double frames_per_second = 0.0;
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

const char* compiler() {
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/// Appends `run` to the trajectory at kTrajectoryPath, creating the file if
/// needed; earlier runs are kept. A file holding a single run at top level
/// (the format before runs were appended) becomes the first run. Returns
/// false, leaving the file untouched, when it is not a trajectory.
bool append_run(telemetry::Json run) {
    telemetry::Json runs = telemetry::Json::array();
    if (std::ifstream in{kTrajectoryPath}; in) {
        std::ostringstream text;
        text << in.rdbuf();
        const auto old = telemetry::Json::parse(text.str());
        if (!old.has_value() || !old->is_object()) return false;
        if (const telemetry::Json* prior = old->find("runs"); prior != nullptr) {
            if (!prior->is_array()) return false;
            runs = *prior;
        } else if (old->find("configs") != nullptr) {
            runs.push_back(*old);
        } else {
            return false;
        }
    }
    runs.push_back(std::move(run));
    telemetry::Json doc = telemetry::Json::object();
    doc["schema"] = kTrajectorySchema;
    doc["bench"] = "serve_throughput";
    doc["runs"] = std::move(runs);
    std::ofstream out{kTrajectoryPath, std::ios::trunc};
    out << doc.dump(2) << "\n";
    return static_cast<bool>(out);
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
        serve::ServerOptions options;
        options.schemes = {"arpwatch"};
        options.shards = shards;
        options.ring_capacity = 1 << 16;
        options.stream_alerts = false;  // measure detection, not JSONL encode
        auto server = serve::Server::create(registry, options);
        if (!server.ok()) {
            std::fprintf(stderr, "[bench] serve_throughput: %s\n", server.error().c_str());
            return 1;
        }

        auto pipe = serve::make_pipe();
        if (!pipe.ok()) {
            std::fprintf(stderr, "[bench] serve_throughput: %s\n", pipe.error().c_str());
            return 1;
        }
        common::Stopwatch watch;
        std::optional<common::Expected<serve::ServeOutcome>> served;
        const std::string peer = exp::run_pair(
            [&] { stream_trace(*pipe->client, trace.value(), laps); },
            [&] { served = server.value()->serve(*pipe->server); });
        const auto& outcome = *served;
        const double wall = watch.elapsed_seconds();
        if (!peer.empty()) {
            std::fprintf(stderr, "[bench] serve_throughput: client: %s\n", peer.c_str());
            ++failures;
            continue;
        }
        if (!outcome.ok()) {
            std::fprintf(stderr, "[bench] serve_throughput: shards=%zu: %s\n", shards,
                         outcome.error().c_str());
            ++failures;
            continue;
        }
        if (!outcome.value().ended_by_end_record ||
            !outcome.value().transport_error.empty()) {
            std::fprintf(stderr,
                         "[bench] serve_throughput: shards=%zu stream did not finish "
                         "cleanly\n",
                         shards);
            ++failures;
        }

        ConfigResult r;
        r.shards = shards;
        r.frames = static_cast<std::uint64_t>(
            outcome.value().summary.find("frames")->as_int());
        r.alerts = static_cast<std::uint64_t>(outcome.value().alerts.size());
        r.backpressure_waits =
            server.value()->metrics().counter("serve.intake.backpressure_waits").value();
        r.wall_seconds = wall;
        r.frames_per_second = wall > 0.0 ? static_cast<double>(r.frames) / wall : 0.0;
        // The zero-loss contract: every streamed frame was admitted and
        // processed (backpressure mode, so drops are impossible by design).
        if (r.frames != total_frames) {
            std::fprintf(stderr,
                         "[bench] serve_throughput: shards=%zu processed %llu of %llu "
                         "frames — admitted-frame loss\n",
                         shards, static_cast<unsigned long long>(r.frames),
                         static_cast<unsigned long long>(total_frames));
            ++failures;
        }
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
                     "[bench] shards=%zu %12.0f frames/s (%.3f s, %llu backpressure "
                     "waits)\n",
                     r.shards, r.frames_per_second, r.wall_seconds,
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
    telemetry::Json host = telemetry::Json::object();
    host["nproc"] = static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
    host["compiler"] = compiler();
    host["build_type"] = ARPSEC_BUILD_TYPE;
    host["version"] = common::version_string();
    run["host"] = std::move(host);
    run["smoke"] = opt.smoke;
    run["frames"] = total_frames;
    telemetry::Json rows = telemetry::Json::array();
    for (const auto& r : results) {
        telemetry::Json row = telemetry::Json::object();
        row["shards"] = static_cast<std::uint64_t>(r.shards);
        row["frames_per_second"] = r.frames_per_second;
        row["wall_seconds"] = r.wall_seconds;
        row["alerts"] = r.alerts;
        row["backpressure_waits"] = r.backpressure_waits;
        rows.push_back(std::move(row));
    }
    run["configs"] = std::move(rows);
    if (!append_run(std::move(run))) {
        std::fprintf(stderr, "[bench] cannot append a run to %s\n", kTrajectoryPath);
        ++failures;
    }

    return exp::finish_bench(opt, artifact, failures);
}
