// arpsec-replay — replays a labeled trace through detection schemes and
// scores them: per-scheme precision/recall against the trace's ground
// truth, exported as an arpsec.replay-artifact.v2 JSON envelope.
//
//   $ arpsec-replay --pcap trace.pcap                       # all schemes
//   $ arpsec-replay --pcap t.pcap --schemes arpwatch,dai --jobs 4 --out replay.json
//
// Schemes split over --jobs workers that each walk the trace once, so
// stdout and the artifact are byte-identical for every --jobs value. The
// one wall-clock figure, the replay's frames/s, goes to stderr.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/version.hpp"
#include "core/report.hpp"
#include "detect/registry.hpp"
#include "replay/engine.hpp"
#include "replay/source.hpp"
#include "serve/alert_stream.hpp"

namespace {

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s --pcap PATH [--labels PATH] [--schemes a,b,...] [--jobs J]\n"
        "          [--out PATH] [--window-ms MS] [--grace-ms MS] [--alerts PATH]\n"
        "  --pcap PATH     trace to replay (classic pcap)\n"
        "  --labels PATH   ground-truth sidecar (default: <pcap>.labels.json)\n"
        "  --schemes LIST  comma-separated scheme pool (default: all registered)\n"
        "  --jobs J        scheme-replay threads; report identical for any J\n"
        "  --out PATH      write the arpsec.replay-artifact.v2 JSON\n"
        "  --window-ms MS  alert<->attack matching window (default 1000)\n"
        "  --grace-ms MS   virtual time appended after the last frame (default 2000)\n"
        "  --alerts PATH   write every alert as canonical arpsec.alert-stream.v1\n"
        "                  JSONL (the serve<->replay equivalence artifact)\n"
        "  --version       print the build's git describe string and exit\n",
        argv0);
    return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    std::string pcap_path;
    std::string labels_path;
    std::string out_path;
    std::string alerts_path;
    std::vector<std::string> schemes;
    std::size_t jobs = 1;
    arpsec::replay::EngineOptions engine_opts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (arg == "--pcap") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            pcap_path = v;
        } else if (arg == "--labels") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            labels_path = v;
        } else if (arg == "--schemes") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            schemes = split_csv(v);
        } else if (arg == "--jobs") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            jobs = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
        } else if (arg == "--out") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            out_path = v;
        } else if (arg == "--window-ms") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            engine_opts.match_window = arpsec::common::Duration::millis(std::strtoll(v, nullptr, 10));
        } else if (arg == "--grace-ms") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            engine_opts.grace = arpsec::common::Duration::millis(std::strtoll(v, nullptr, 10));
        } else if (arg == "--alerts") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            alerts_path = v;
        } else if (arg == "--version") {
            std::puts(arpsec::common::tool_version_line("replay").c_str());
            return 0;
        } else {
            return usage(argv[0]);
        }
    }
    if (pcap_path.empty()) return usage(argv[0]);
    if (labels_path.empty()) labels_path = pcap_path + ".labels.json";

    arpsec::replay::PcapFileSource source{pcap_path, labels_path};
    auto trace = source.load();
    if (!trace.ok()) {
        std::fprintf(stderr, "arpsec-replay: %s\n", trace.error().c_str());
        return 2;
    }

    const arpsec::detect::Registry registry;
    if (schemes.empty()) {
        for (const auto& entry : registry.entries()) schemes.push_back(entry.name);
    }

    const arpsec::replay::Engine engine{registry, engine_opts};
    const arpsec::common::Stopwatch watch;
    auto outcomes = engine.run_all(trace.value(), schemes, jobs);
    const double wall = watch.elapsed_seconds();
    const std::size_t frames = trace.value().frames.size();
    // stderr, not stdout or the artifact: the wall clock differs per run.
    std::fprintf(stderr,
                 "arpsec-replay: %zu frames x %zu schemes, --jobs %zu: %.3f s = %.0f frames/s\n",
                 frames, schemes.size(), jobs, wall,
                 wall > 0.0 ? static_cast<double>(frames) / wall : 0.0);

    bool failed = false;
    std::vector<arpsec::replay::SchemeScore> scores;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].failed) {
            std::fprintf(stderr, "arpsec-replay: %s: %s\n", schemes[i].c_str(),
                         outcomes[i].error.c_str());
            failed = true;
            continue;
        }
        scores.push_back(std::move(outcomes[i].value));
    }

    std::printf("replayed %zu frames (%zu attacks) from %s\n", frames,
                trace.value().attack_count(), pcap_path.c_str());
    arpsec::core::TextTable table;
    table.set_headers(
        {"scheme", "frames", "alerts", "TP", "FP", "detected", "precision", "recall"});
    for (const auto& s : scores) {
        table.add_row({s.scheme, std::to_string(s.frames), std::to_string(s.alerts),
                       std::to_string(s.true_positive_alerts),
                       std::to_string(s.false_positive_alerts),
                       std::to_string(s.detected_attacks), arpsec::core::fmt_double(s.precision, 3),
                       arpsec::core::fmt_double(s.recall, 3)});
    }
    table.print();

    if (!alerts_path.empty()) {
        // The artifact below needs each score's counts, not its alert list.
        std::vector<arpsec::detect::Alert> all_alerts;
        for (auto& s : scores) {
            all_alerts.insert(all_alerts.end(), std::make_move_iterator(s.alert_list.begin()),
                              std::make_move_iterator(s.alert_list.end()));
        }
        if (!arpsec::serve::write_alert_file(alerts_path, std::move(all_alerts))) {
            std::fprintf(stderr, "arpsec-replay: cannot write %s\n", alerts_path.c_str());
            return 2;
        }
    }

    if (!out_path.empty()) {
        const auto artifact =
            arpsec::replay::Engine::artifact(trace.value(), scores, "arpsec-replay");
        std::ofstream out{out_path};
        if (!out) {
            std::fprintf(stderr, "arpsec-replay: cannot write %s\n", out_path.c_str());
            return 2;
        }
        out << artifact.dump(2) << "\n";
    }
    return failed ? 1 : 0;
}
