// arpsec_sim — command-line driver for the ARPSEC testbed.
//
// Runs one scenario (scheme × attack × topology) and prints the result;
// optionally records a pcap of the whole fabric and/or appends a CSV row.
//
//   $ arpsec_sim --list
//   $ arpsec_sim --scheme arpwatch --attack mitm --hosts 8 --seed 42
//   $ arpsec_sim --scheme dai --addressing dhcp --attack mitm --pcap run.pcap
//   $ arpsec_sim --sweep --scheme all --seeds 10 --jobs 4 --sweep-out sweep.json

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "common/time.hpp"
#include "common/version.hpp"
#include "core/artifact.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "detect/registry.hpp"
#include "exp/executor.hpp"
#include "exp/sweep.hpp"
#include "sim/pcap_tap.hpp"
#include "telemetry/run_artifact.hpp"
#include "telemetry/trace.hpp"

using namespace arpsec;

namespace {

struct Args {
    std::string scheme = "none";
    std::string attack = "mitm";
    std::string addressing = "static";
    std::string policy = "linux-2.6";
    std::size_t hosts = 8;
    std::uint64_t seed = 1;
    std::int64_t duration_s = 60;
    std::int64_t attack_start_s = 20;
    std::int64_t attack_stop_s = 50;
    double loss = 0.0;
    std::string pcap_path;
    std::string csv_path;
    std::string metrics_path;
    std::string trace_path;
    std::string trace_jsonl_path;
    bool verbose = false;
    bool list = false;
    bool help = false;
    bool version = false;
    bool sweep = false;
    std::size_t jobs = 1;
    std::size_t seeds = 1;
    std::string sweep_out_path;
};

/// Upper bounds of --hosts (static addresses run .10-.249, below the
/// attacker's .250) and of --seeds.
constexpr std::size_t kMaxHosts = 240;
constexpr std::size_t kMaxSeeds = 1'000'000;

void usage(std::FILE* out) {
    std::fputs(
        "arpsec_sim — run one ARPSEC scenario\n"
        "\n"
        "  --list                 list available schemes and exit\n"
        "  --scheme NAME          scheme under test (default: none)\n"
        "  --attack KIND          none|mitm|dos|hijack-offline|reply-race (default: mitm)\n"
        "  --addressing MODE      static|dhcp (default: static)\n"
        "  --policy NAME          host ARP cache policy (default: linux-2.6)\n"
        "  --hosts N              station count, 1-240 (default: 8)\n"
        "  --seed S               run seed, 0-2^64-1 (default: 1)\n"
        "  --duration SECS        total simulated time, >= 0 (default: 60)\n"
        "  --attack-window A B    attack start/stop seconds, >= 0 (default: 20 50)\n"
        "  --loss P               iid frame loss on access links, 0-1 (default: 0)\n"
        "  --pcap FILE            record every frame to a pcap file\n"
        "  --csv FILE             append a result row (with header if new)\n"
        "  --metrics-out FILE     write the run artifact (config+result+metrics JSON)\n"
        "  --trace-out FILE       write a Chrome trace_event JSON (chrome://tracing)\n"
        "  --trace-jsonl FILE     write the event log as JSON lines\n"
        "  --verbose              print alerts as they fire\n"
        "  --version              print the build's git describe string and exit\n"
        "\n"
        "sweep mode (aggregate table instead of a single run):\n"
        "  --sweep                sweep scheme x seed instead of one scenario;\n"
        "                         --scheme takes a comma list or 'all'\n"
        "  --seeds K              seed replicates seed..seed+K-1, 1-1000000 (default: 1)\n"
        "  --jobs N               worker threads, 1-256; stdout and artifacts are\n"
        "                         byte-identical for every N (default: 1)\n"
        "  --sweep-out FILE       write the arpsec.sweep-artifact.v1 JSON\n",
        out);
}

/// Reads argv into `out`; a bad argument prints why and the usage text.
bool parse_args(int argc, char** argv, Args& out) {
    common::ArgReader args{argc, argv};
    while (args.next()) {
        if (args.is("--help") || args.is("-h")) {
            out.help = true;
        } else if (args.is("--version")) {
            out.version = true;
        } else if (args.is("--list")) {
            out.list = true;
        } else if (args.is("--verbose")) {
            out.verbose = true;
        } else if (args.is("--scheme")) {
            args.value(out.scheme);
        } else if (args.is("--attack")) {
            args.value(out.attack);
        } else if (args.is("--addressing")) {
            args.value(out.addressing);
        } else if (args.is("--policy")) {
            args.value(out.policy);
        } else if (args.is("--hosts")) {
            args.number(out.hosts, 1, kMaxHosts);
        } else if (args.is("--seed")) {
            args.number(out.seed);
        } else if (args.is("--duration")) {
            args.number(out.duration_s, 0, common::Duration::kMaxSeconds);
        } else if (args.is("--attack-window")) {
            args.number(out.attack_start_s, 0, common::Duration::kMaxSeconds);
            args.number(out.attack_stop_s, 0, common::Duration::kMaxSeconds);
        } else if (args.is("--loss")) {
            args.number(out.loss, 0.0, 1.0);
        } else if (args.is("--pcap")) {
            args.value(out.pcap_path);
        } else if (args.is("--csv")) {
            args.value(out.csv_path);
        } else if (args.is("--metrics-out")) {
            args.value(out.metrics_path);
        } else if (args.is("--trace-out")) {
            args.value(out.trace_path);
        } else if (args.is("--trace-jsonl")) {
            args.value(out.trace_jsonl_path);
        } else if (args.is("--sweep")) {
            out.sweep = true;
        } else if (args.is("--jobs")) {
            args.number(out.jobs, 1, exp::kMaxJobs);
        } else if (args.is("--seeds")) {
            args.number(out.seeds, 1, kMaxSeeds);
        } else if (args.is("--sweep-out")) {
            args.value(out.sweep_out_path);
        } else {
            args.reject();
        }
    }
    if (args.ok()) return true;
    std::fprintf(stderr, "arpsec-sim: %s\n", args.error().c_str());
    usage(stderr);
    return false;
}

bool append_csv(const Args& args, const core::ScenarioResult& r) {
    const bool fresh = [&] {
        std::FILE* f = std::fopen(args.csv_path.c_str(), "r");
        if (f == nullptr) return true;
        std::fclose(f);
        return false;
    }();
    std::FILE* f = std::fopen(args.csv_path.c_str(), "a");
    if (f == nullptr) return false;
    if (fresh) {
        std::fputs(
            "scheme,attack,addressing,hosts,seed,attack_succeeded,interception,"
            "delivery,tp,fp,detection_latency_ms,resolve_p50_us,total_bytes,arp_bytes,"
            "crypto_ops\n",
            f);
    }
    std::fprintf(f, "%s,%s,%s,%zu,%llu,%d,%.4f,%.4f,%llu,%llu,%s,%.1f,%llu,%llu,%llu\n",
                 r.scheme_name.c_str(), args.attack.c_str(), args.addressing.c_str(),
                 args.hosts, static_cast<unsigned long long>(args.seed), r.attack_succeeded ? 1 : 0,
                 r.attack_window.interception_ratio(), r.attack_window.delivery_ratio(),
                 static_cast<unsigned long long>(r.alerts.true_positives),
                 static_cast<unsigned long long>(r.alerts.false_positives),
                 r.alerts.detection_latency
                     ? core::fmt_double(r.alerts.detection_latency->to_millis(), 3).c_str()
                     : "",
                 r.resolution_latency_us.median(), static_cast<unsigned long long>(r.total_bytes),
                 static_cast<unsigned long long>(r.arp_bytes), static_cast<unsigned long long>(r.crypto_ops.total()));
    return std::fclose(f) == 0;  // the buffered row fails here on a full disk
}

/// Sweep mode: scheme set × seed replicates on the worker pool, aggregate
/// table on stdout (byte-identical for every --jobs value), timing and
/// failures on stderr. pcap/trace/csv options apply to single runs only.
int run_sweep_mode(const Args& args, const core::ScenarioConfig& base_cfg) {
    exp::SweepSpec spec;
    spec.name = "cli_sweep";
    if (args.scheme == "all") {
        for (const auto& reg : detect::all_schemes()) spec.schemes.push_back(reg.name);
    } else {
        spec.schemes = common::split_list(args.scheme);
    }
    for (const auto& name : spec.schemes) {
        if (detect::make_scheme(name) == nullptr) {
            std::fprintf(stderr, "unknown scheme '%s' (see --list)\n", name.c_str());
            return 2;
        }
    }
    spec.seeds.clear();
    for (std::size_t k = 0; k < args.seeds; ++k) spec.seeds.push_back(args.seed + k);
    spec.configure = [&](const exp::Point& p) {
        core::ScenarioConfig cfg = base_cfg;
        cfg.name = "cli-sweep";
        cfg.seed = p.seed;
        return cfg;
    };

    common::Stopwatch sw;
    const auto outcome = exp::run_sweep(spec, exp::SweepOptions{args.jobs});
    std::fprintf(stderr, "sweep: %zu points, jobs=%zu, %.2fs wall\n", outcome.points.size(),
                 args.jobs, sw.elapsed_seconds());
    for (const auto& pr : outcome.points) {
        if (!pr.failed) continue;
        std::fprintf(stderr, "point %zu (%s seed=%llu) failed: %s\n", pr.point.index,
                     pr.point.scheme.c_str(), static_cast<unsigned long long>(pr.point.seed),
                     pr.error.c_str());
    }

    core::TextTable table("Sweep — " + std::to_string(spec.schemes.size()) + " scheme(s) x " +
                          std::to_string(args.seeds) + " seed(s), attack=" + args.attack);
    table.set_headers({"scheme", "runs", "attack success", "detected", "FP/run",
                       "interception", "resolve p50 (us)"});
    for (const auto& name : spec.schemes) {
        const auto& agg = outcome.aggregate_at(name, {});
        const auto rate = [&](const char* m) {
            const auto* s = agg.measure(m);
            return core::fmt_percent(s != nullptr ? s->mean() : 0.0);
        };
        table.add_row({name, std::to_string(agg.replicates), rate("attack_succeeded"),
                       rate("detected"), exp::fmt_mean_sd(agg.measure("false_positives")),
                       rate("interception"),
                       exp::fmt_mean_sd(agg.measure("resolve_p50_us"))});
    }
    table.print();

    if (!args.sweep_out_path.empty()) {
        exp::SweepArtifact artifact("arpsec_sim");
        artifact.set_meta("attack", args.attack);
        artifact.add(outcome);
        if (!artifact.write(args.sweep_out_path)) {
            std::fprintf(stderr, "failed to write %s\n", args.sweep_out_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote sweep artifact -> %s\n", args.sweep_out_path.c_str());
    }
    return outcome.failures() > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) return 2;
    if (args.version) {
        std::puts(common::tool_version_line("sim").c_str());
        return 0;
    }
    if (args.help) {
        usage(stdout);
        return 0;
    }
    if (args.list) {
        std::puts("available schemes:");
        for (const auto& reg : detect::all_schemes()) {
            auto scheme = reg.make();
            const auto t = scheme->traits();
            std::printf("  %-16s %-18s %s\n", reg.name.c_str(),
                        detect::to_string(t.vantage).c_str(), t.notes.c_str());
        }
        std::puts("\navailable cache policies:");
        for (const auto& p : arp::CachePolicy::all_profiles()) {
            std::printf("  %s\n", p.name.c_str());
        }
        return 0;
    }

    std::unique_ptr<detect::Scheme> scheme;
    if (!args.sweep) {
        scheme = detect::make_scheme(args.scheme);
        if (scheme == nullptr) {
            std::fprintf(stderr, "unknown scheme '%s' (see --list)\n", args.scheme.c_str());
            return 2;
        }
    }

    core::ScenarioConfig cfg;
    cfg.name = "cli";
    cfg.seed = args.seed;
    cfg.host_count = args.hosts;
    cfg.link_loss = args.loss;
    cfg.duration = common::Duration::seconds(args.duration_s);
    cfg.attack_start = common::Duration::seconds(args.attack_start_s);
    cfg.attack_stop = common::Duration::seconds(args.attack_stop_s);

    if (args.addressing == "static") {
        cfg.addressing = core::Addressing::kStatic;
    } else if (args.addressing == "dhcp") {
        cfg.addressing = core::Addressing::kDhcp;
    } else {
        std::fprintf(stderr, "unknown addressing '%s'\n", args.addressing.c_str());
        return 2;
    }

    if (args.attack == "none") cfg.attack = core::AttackKind::kNone;
    else if (args.attack == "mitm") cfg.attack = core::AttackKind::kMitm;
    else if (args.attack == "dos") cfg.attack = core::AttackKind::kDosBlackhole;
    else if (args.attack == "hijack-offline") cfg.attack = core::AttackKind::kHijackOffline;
    else if (args.attack == "reply-race") cfg.attack = core::AttackKind::kReplyRace;
    else {
        std::fprintf(stderr, "unknown attack '%s'\n", args.attack.c_str());
        return 2;
    }

    bool policy_found = false;
    for (const auto& p : arp::CachePolicy::all_profiles()) {
        if (p.name == args.policy) {
            cfg.host_policy = p;
            policy_found = true;
        }
    }
    if (!policy_found) {
        std::fprintf(stderr, "unknown policy '%s' (see --list)\n", args.policy.c_str());
        return 2;
    }

    if (args.sweep) return run_sweep_mode(args, cfg);

    core::ScenarioRunner runner(cfg);
    if (args.verbose) {
        runner.alerts().on_alert = [](const detect::Alert& a) {
            std::printf("ALERT  %s\n", a.to_string().c_str());
        };
    }

    telemetry::EventTracer tracer;
    const bool tracing = !args.trace_path.empty() || !args.trace_jsonl_path.empty();
    if (tracing) runner.set_tracer(&tracer);

    // The capture file is created before the run, so an unwritable path
    // fails before any simulated time is spent.
    std::optional<sim::PcapTap> tap;
    if (!args.pcap_path.empty()) {
        auto writer = wire::PcapWriter::open(args.pcap_path);
        if (!writer.ok()) {
            std::fprintf(stderr, "arpsec-sim: %s\n", writer.error().c_str());
            return 1;
        }
        tap.emplace(std::move(writer).value());
    }
    const auto result = runner.run_with_tap(*scheme, tap ? &*tap : nullptr);
    const auto pcap_closed = tap ? tap->close() : common::Expected<bool>{true};

    std::printf("%s\n", result.summary_line().c_str());
    std::printf("  benign window  : %5.1f%% delivered (%llu sent)\n",
                result.benign_window.delivery_ratio() * 100.0,
                static_cast<unsigned long long>(result.benign_window.sent));
    std::printf("  attack window  : %5.1f%% delivered, %5.1f%% intercepted (%llu sent)\n",
                result.attack_window.delivery_ratio() * 100.0,
                result.attack_window.interception_ratio() * 100.0,
                static_cast<unsigned long long>(result.attack_window.sent));
    std::printf("  victim cache   : %s\n", result.victim_poisoned_at_end ? "POISONED" : "clean");
    std::printf("  resolve p50    : %.1f us over %zu cold resolutions\n",
                result.resolution_latency_us.median(), result.resolution_latency_us.count());
    std::printf("  wire           : %llu frames, %llu bytes (%llu ARP frames)\n",
                static_cast<unsigned long long>(result.total_frames), static_cast<unsigned long long>(result.total_bytes),
                static_cast<unsigned long long>(result.arp_frames));
    if (result.crypto_ops.total() > 0) {
        std::printf("  crypto ops     : %llu signs, %llu verifies\n",
                    static_cast<unsigned long long>(result.crypto_ops.signs),
                    static_cast<unsigned long long>(result.crypto_ops.verifies));
    }
    if (!pcap_closed.ok()) {
        std::fprintf(stderr, "arpsec-sim: %s\n", pcap_closed.error().c_str());
        return 1;
    }
    if (tap) std::printf("  pcap           : %zu frames -> %s\n", tap->frames(),
                         args.pcap_path.c_str());
    if (!args.csv_path.empty() && !append_csv(args, result)) {
        std::fprintf(stderr, "failed to write %s\n", args.csv_path.c_str());
        return 1;
    }
    if (!args.metrics_path.empty()) {
        telemetry::RunArtifact artifact("arpsec_sim");
        artifact.add_run(core::run_json(result, &runner.metrics()));
        if (!artifact.write(args.metrics_path)) {
            std::fprintf(stderr, "failed to write %s\n", args.metrics_path.c_str());
            return 1;
        }
        std::printf("  metrics        : %s\n", args.metrics_path.c_str());
    }
    if (!args.trace_path.empty()) {
        if (!tracer.write_chrome_trace(args.trace_path)) {
            std::fprintf(stderr, "failed to write %s\n", args.trace_path.c_str());
            return 1;
        }
        std::printf("  trace          : %zu events -> %s\n", tracer.size(),
                    args.trace_path.c_str());
    }
    if (!args.trace_jsonl_path.empty()) {
        if (!tracer.write_jsonl(args.trace_jsonl_path)) {
            std::fprintf(stderr, "failed to write %s\n", args.trace_jsonl_path.c_str());
            return 1;
        }
        std::printf("  trace (jsonl)  : %zu events -> %s\n", tracer.size(),
                    args.trace_jsonl_path.c_str());
    }
    return result.attack_succeeded ? 3 : 0;
}
