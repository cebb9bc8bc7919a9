// arpsec-bench — the repository's seeded benchmark. One invocation runs
// one workload and prints every metric as a `name value unit` line:
//
//   $ arpsec-bench --workload replay-all --seed 1 --seconds 15
//   $ arpsec-bench --workload serve-paced --seed 3 --trace paced.trace.json
//   $ arpsec-bench --self-test
//
// Workloads: replay-all, serve-saturate, serve-paced, sim-check (see
// README.md). --out writes the result as one `arpsec.bench-result.v1`
// JSON document: host fingerprint, attempted/failed counts, every
// end-to-end metric's median and quartiles across repetitions, and (with
// --trace) the per-layer ledger. Exit code 0 when every output check
// passed, 1 when one failed, 2 on a usage error.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/version.hpp"
#include "detect/registry.hpp"
#include "serve/alert_stream.hpp"

#ifndef ARPSEC_BENCH_BUILD_TYPE
#define ARPSEC_BENCH_BUILD_TYPE "unknown"
#endif

using namespace arpsec;
using namespace arpsec::bench;

namespace {

const std::vector<std::string> kWorkloads{"replay-all", "serve-saturate", "serve-paced",
                                          "sim-check"};
const std::vector<std::string> kEndToEnd{"setup_s", "peak_rss_mb", "throughput_per_s",
                                         "latency_p50_ms", "quality"};

/// One per-layer metric: its unit and the end-to-end metric and workload
/// it should move (README.md, "Per-layer metrics").
struct LayerSpec {
    std::string name;
    std::string unit;
    std::string moves;
};

std::vector<LayerSpec> layer_catalog() {
    const std::string replay_tp = "throughput_per_s on replay-all";
    const std::string both_tp = "throughput_per_s on replay-all and serve-saturate";
    const std::string serve_tp = "throughput_per_s on serve-saturate";
    const std::string check_tp = "throughput_per_s on sim-check";
    std::vector<LayerSpec> c{
        {"wire.pcap_read.ns_per_frame", "ns/frame", replay_tp},
        {"wire.capture.ns_per_frame", "ns/frame", both_tp},
        {"wire.prime.ns_per_frame", "ns/frame", both_tp},
        {"wire.release.ns_per_frame", "ns/frame", replay_tp},
        {"wire.frameview.hit_ratio", "ratio", replay_tp},
        {"wire.stream_decode.ns_per_frame", "ns/frame", serve_tp},
        {"loadgen.encode.ns_per_frame", "ns/frame", serve_tp + " (client-side bound)"},
        {"transport.write_blocked_pct", "%", serve_tp + "; stays near 0 on serve-paced"},
        {"replay.labels.ms", "ms", "latency_p50_ms on replay-all"},
        {"replay.session.advance.ns_per_frame", "ns/frame", both_tp},
        {"replay.session.deploy_ms", "ms", "setup_s on replay-all"},
        {"replay.session.finish_ms", "ms", "setup_s on replay-all"},
        {"replay.session.teardown_ms", "ms", "latency_p50_ms on replay-all"},
        {"replay.score.ns_per_alert", "ns/alert", replay_tp},
    };
    for (const std::string& s : monitor_schemes()) {
        c.push_back({"detect." + s + ".ns_per_frame", "ns/frame", both_tp});
    }
    c.push_back({"detect.passive.ns_per_frame", "ns/frame",
                 replay_tp + "; no change predicted on the serve workloads"});
    for (const std::string& s : monitor_schemes()) {
        c.push_back({"detect." + s + ".alerts", "count", "quality on replay-all and serve-*"});
    }
    c.push_back({"detect.macro_precision", "ratio", "quality on replay-all and serve-*"});
    c.push_back({"detect.macro_recall", "ratio", "quality on replay-all and serve-*"});
    const std::vector<LayerSpec> serve{
        {"serve.intake.records", "count", serve_tp},
        {"serve.intake.bad_records", "count", "quality on serve-*"},
        {"serve.intake.backpressure_waits", "count", serve_tp},
        {"serve.intake.dropped_frames", "count", "quality on serve-*"},
        {"serve.shard.skew", "ratio", serve_tp},
        {"serve.queue_depth.max", "frames", "serve.alert_latency_p99_ms on serve-saturate"},
        {"serve.ring_hop.le_10us_pct", "%", "latency_p50_ms on serve-paced"},
        {"serve.ring_hop.le_1ms_pct", "%", "latency_p50_ms on serve-paced"},
        {"serve.route.ns_per_frame", "ns/frame", serve_tp},
        {"serve.alert_encode.ns_per_alert", "ns/alert", "latency_p50_ms on serve-paced"},
        {"serve.ledger.intake_ns_per_frame", "ns/frame", serve_tp},
        {"serve.ledger.worker_ns_per_frame", "ns/frame", serve_tp},
        {"serve.ledger.unattributed_ns_per_frame", "ns/frame", serve_tp},
        {"serve.alert_latency_p99_ms", "ms", "tail of latency_p50_ms on serve-*"},
        {"serve.alert_latency.samples", "count", "sample count of the serve latencies"},
        {"loadgen.lateness_p99_ms", "ms", "validity of serve-paced (generator on schedule)"},
        {"loadgen.offered_fps", "1/s", "validity of serve-paced (offered rate held)"},
        {"check.gen.us_per_scenario", "us", check_tp},
        {"check.run.us_per_scenario", "us", check_tp},
        {"check.run.ns_per_frame", "ns/frame", check_tp},
    };
    c.insert(c.end(), serve.begin(), serve.end());
    const detect::Registry registry;
    for (const auto& entry : registry.entries()) {
        c.push_back({"check.run." + entry.name + ".us_per_scenario", "us", check_tp});
    }
    const std::vector<LayerSpec> tail{
        {"check.shrink.runs", "count", check_tp},
        {"check.shrink.ms", "ms", check_tp},
        {"check.failing_seeds", "count", "quality on sim-check"},
        {"trace.residual_pct", "%", "ledger completeness: within +-10% of the traced wall"},
        {"trace.overhead_pct", "%", "cost of the traced pass over the untraced run"},
        {"trace.clock_read_ns", "ns", "cost of one span clock read"},
    };
    c.insert(c.end(), tail.begin(), tail.end());
    return c;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed S [--seconds X] [--trace FILE] [--smoke]\n"
                 "          [--out FILE] [--work-dir DIR]\n"
                 "       %s --self-test [--work-dir DIR]\n"
                 "  --workload NAME  replay-all | serve-saturate | serve-paced | sim-check\n"
                 "  --seed S         input seed; the program only sees inputs generated from it\n"
                 "  --seconds X      measuring budget (default 10; half of it when traced)\n"
                 "  --trace FILE     add the traced pass; Chrome trace JSON written to FILE\n"
                 "  --smoke          tiny inputs, every correctness check still on\n"
                 "  --out FILE       write the arpsec.bench-result.v1 JSON result\n"
                 "  --work-dir DIR   scratch directory for the pcap and socket (default .)\n"
                 "  --self-test      digest self-check, then every workload at --smoke size\n",
                 argv0, argv0);
    return 2;
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

bool run_workload(const Options& options, Result& result) {
    if (options.workload == "replay-all") {
        run_replay_all(options, result);
    } else if (options.workload == "serve-saturate") {
        run_serve(options, false, result);
    } else if (options.workload == "serve-paced") {
        run_serve(options, true, result);
    } else if (options.workload == "sim-check") {
        run_sim_check(options, result);
    } else {
        return false;
    }
    if (options.traced()) {
        result.layer("trace.clock_read_ns", "ns", clock_read_ns());
        // Layers a workload does not exercise read 0, so every workload
        // reports the same metric set.
        std::set<std::string> have;
        for (const Metric& m : result.layers) have.insert(m.name);
        for (const LayerSpec& spec : layer_catalog()) {
            if (have.count(spec.name) == 0) result.layer(spec.name, spec.unit, 0.0);
        }
    }
    if (result.attempted == 0) result.fail(1, "no operation was attempted");
    return true;
}

bool correct(const Result& result) { return result.failed == 0 && result.errors.empty(); }

telemetry::Json to_json(const Options& options, const Result& result) {
    telemetry::Json j = telemetry::Json::object();
    j["schema"] = "arpsec.bench-result.v1";
    telemetry::Json fp = telemetry::Json::object();
    fp["nproc"] = static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
    fp["compiler"] = compiler();
    fp["build_type"] = ARPSEC_BENCH_BUILD_TYPE;
    fp["version"] = common::version_string();
    fp["seed"] = options.seed;
    fp["workload"] = options.workload;
    fp["repetitions"] = static_cast<std::uint64_t>(result.repetitions);
    fp["seconds"] = options.seconds;
    fp["smoke"] = options.smoke;
    fp["traced"] = options.traced();
    j["fingerprint"] = std::move(fp);
    j["correct"] = correct(result);
    j["attempted"] = result.attempted;
    j["failed"] = result.failed;
    telemetry::Json errors = telemetry::Json::array();
    for (const std::string& e : result.errors) errors.push_back(e);
    j["errors"] = std::move(errors);

    telemetry::Json metrics = telemetry::Json::object();
    for (const Metric& m : result.end_to_end) {
        telemetry::Json row = telemetry::Json::object();
        row["value"] = m.value;
        row["unit"] = m.unit;
        row["q1"] = quartile(m.samples, 1);
        row["q3"] = quartile(m.samples, 3);
        row["n"] = static_cast<std::uint64_t>(m.samples.size());
        telemetry::Json samples = telemetry::Json::array();
        for (const double s : m.samples) samples.push_back(s);
        row["samples"] = std::move(samples);
        metrics[m.name] = std::move(row);
    }
    j["metrics"] = std::move(metrics);

    std::map<std::string, std::string> moves;
    for (const LayerSpec& spec : layer_catalog()) moves[spec.name] = spec.moves;
    telemetry::Json layers = telemetry::Json::object();
    for (const Metric& m : result.layers) {
        telemetry::Json row = telemetry::Json::object();
        row["value"] = m.value;
        row["unit"] = m.unit;
        row["moves"] = moves[m.name];
        layers[m.name] = std::move(row);
    }
    j["layers"] = std::move(layers);
    j["details"] = result.details;
    return j;
}

void print(const Result& result) {
    for (const Metric& m : result.end_to_end) {
        std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        std::printf("%s.samples %zu count\n", m.name.c_str(), m.samples.size());
    }
    std::printf("error_rate %.9g failed/attempted\n",
                result.attempted == 0 ? 1.0
                                      : static_cast<double>(result.failed) /
                                            static_cast<double>(result.attempted));
    for (const Metric& m : result.layers) {
        std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const std::string& e : result.errors) {
        std::fprintf(stderr, "arpsec-bench: %s\n", e.c_str());
    }
}

bool digest_self_test() {
    detect::Alert a;
    a.at = common::SimTime{1'500'000'000};
    a.scheme = "arpwatch";
    a.kind = detect::AlertKind::kIpMacChange;
    a.ip = wire::Ipv4Address{192, 168, 1, 7};
    a.claimed_mac = wire::MacAddress::local(0x66);
    a.previous_mac = wire::MacAddress::local(0x07);
    a.detail = "changed ethernet address";
    detect::Alert b = a;
    b.at = common::SimTime{1'600'000'000};
    b.scheme = "snort-arpspoof";
    detect::Alert c = a;
    c.ip = wire::Ipv4Address{192, 168, 1, 9};

    const auto digest = [](const std::vector<detect::Alert>& alerts) {
        AlertDigest d;
        for (const detect::Alert& x : alerts) d.add(serve::alert_line(x));
        return d;
    };
    const AlertDigest base = digest({a, b, c});
    bool ok = base.count == 3 && digest({c, a, b}) == base;
    // Flipping any single field of one alert must change the digest.
    std::vector<std::vector<detect::Alert>> flipped(6, {a, b, c});
    flipped[0][1].at = common::SimTime{1'600'000'001};
    flipped[1][1].scheme = "arpwatch";
    flipped[2][1].kind = detect::AlertKind::kFlipFlop;
    flipped[3][1].ip = wire::Ipv4Address{192, 168, 1, 8};
    flipped[4][1].claimed_mac = wire::MacAddress::local(0x67);
    flipped[5][1].detail = "flip flop";
    for (const auto& set : flipped) ok = ok && digest(set) != base;
    ok = ok && digest({a, b}) != base;
    std::printf("self-test digest: %s\n", ok ? "ok" : "FAIL");
    return ok;
}

int self_test(const std::string& work_dir) {
    bool ok = digest_self_test();
    const std::vector<LayerSpec> catalog = layer_catalog();
    for (const std::string& workload : kWorkloads) {
        Options options;
        options.workload = workload;
        options.seed = 1;
        options.seconds = 0.4;
        options.smoke = true;
        options.work_dir = work_dir;
        options.trace_path = work_dir + "/selftest-" + workload + ".trace.json";
        Result result;
        (void)run_workload(options, result);
        bool pass = correct(result);
        std::set<std::string> have;
        for (const Metric& m : result.end_to_end) have.insert(m.name);
        for (const std::string& name : kEndToEnd) pass = pass && have.count(name) == 1;
        have.clear();
        for (const Metric& m : result.layers) have.insert(m.name);
        for (const LayerSpec& spec : catalog) pass = pass && have.count(spec.name) == 1;
        std::ifstream in{options.trace_path};
        std::ostringstream text;
        text << in.rdbuf();
        const auto trace = telemetry::Json::parse(text.str());
        pass = pass && trace.has_value() && trace->find("traceEvents") != nullptr;
        std::printf("self-test %s: %s (attempted %llu, failed %llu)\n", workload.c_str(),
                    pass ? "ok" : "FAIL", static_cast<unsigned long long>(result.attempted),
                    static_cast<unsigned long long>(result.failed));
        for (const std::string& e : result.errors) std::printf("  %s\n", e.c_str());
        ok = ok && pass;
    }
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    bool want_self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        const char* v = nullptr;
        if (arg == "--workload") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.workload = v;
        } else if (arg == "--seed") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seconds") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.seconds = std::strtod(v, nullptr);
            if (!(options.seconds > 0.0)) return usage(argv[0]);
        } else if (arg == "--trace") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.trace_path = v;
        } else if (arg == "--out") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.out_path = v;
        } else if (arg == "--work-dir") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.work_dir = v;
        } else if (arg == "--smoke") {
            options.smoke = true;
        } else if (arg == "--self-test") {
            want_self_test = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (want_self_test) return self_test(options.work_dir);

    Result result;
    if (!run_workload(options, result)) return usage(argv[0]);
    print(result);
    if (!options.out_path.empty()) {
        std::ofstream out{options.out_path, std::ios::trunc};
        out << to_json(options, result).dump(2) << "\n";
        if (!out) {
            std::fprintf(stderr, "arpsec-bench: cannot write %s\n", options.out_path.c_str());
            return 1;
        }
    }
    return correct(result) ? 0 : 1;
}
