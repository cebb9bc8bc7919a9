// arpsec-trace — labeled trace generator for the replay engine.
//
// Renders check::ScenarioGen scenarios through the full simulator, records
// the mirror-port frame stream with attacker-origin ground truth, and
// writes a classic pcap plus its arpsec.trace-labels.v1 sidecar. The
// output is byte-identical for every --jobs value.
//
//   $ arpsec-trace --frames 100000 --out trace.pcap --jobs 8
//   $ arpsec-trace --frames 5000 --first-seed 7 --out t.pcap --labels t.labels.json

#include <cstdio>
#include <string>

#include "common/args.hpp"
#include "common/version.hpp"
#include "exp/executor.hpp"
#include "replay/source.hpp"

namespace {

int usage(const char* argv0, const std::string& error = {}) {
    if (!error.empty()) std::fprintf(stderr, "arpsec-trace: %s\n", error.c_str());
    std::fprintf(
        stderr,
        "usage: %s [--frames N] [--first-seed S] [--jobs J] [--out PCAP]\n"
        "          [--labels PATH] [--gap-ms MS] [--max-hosts H] [--max-events E]\n"
        "  --frames N      minimum frame count of the trace, >= 0 (default 10000)\n"
        "  --first-seed S  seed of the first scenario epoch, 0-2^64-1 (default 1)\n"
        "  --jobs J        epoch-rendering threads, 1-256 (default 1); output is\n"
        "                  identical for any J\n"
        "  --out PCAP      pcap path (default trace.pcap)\n"
        "  --labels PATH   sidecar path (default: <out>.labels.json)\n"
        "  --gap-ms MS     idle gap between scenario epochs, >= 0 (default 100)\n"
        "  --max-hosts H   upper bound on hosts per epoch, 3-128 (default 8)\n"
        "  --max-events E  upper bound on injected events per epoch, >= 4\n"
        "                  (default 16)\n"
        "  --version       print the build's git describe string and exit\n",
        argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    arpsec::replay::ScenarioTraceSource::Options opts;
    std::string out_path = "trace.pcap";
    std::string labels_path;

    arpsec::common::ArgReader args{argc, argv};
    while (args.next()) {
        if (args.is("--frames")) {
            args.number(opts.target_frames);
        } else if (args.is("--first-seed")) {
            args.number(opts.first_seed);
        } else if (args.is("--jobs")) {
            args.number(opts.jobs, 1, arpsec::exp::kMaxJobs);
        } else if (args.is("--out")) {
            args.value(out_path);
        } else if (args.is("--labels")) {
            args.value(labels_path);
        } else if (args.is("--gap-ms")) {
            args.millis(opts.epoch_gap);
        } else if (args.is("--max-hosts")) {
            args.number(opts.gen.max_hosts, 3, 128);
        } else if (args.is("--max-events")) {
            args.number(opts.gen.max_events, 4);
        } else if (args.is("--version")) {
            std::puts(arpsec::common::tool_version_line("trace").c_str());
            return 0;
        } else {
            args.reject();
        }
    }
    if (!args.ok()) return usage(argv[0], args.error());
    if (labels_path.empty()) labels_path = out_path + ".labels.json";

    arpsec::replay::ScenarioTraceSource source{opts};
    auto trace = source.load();
    if (!trace.ok()) {
        std::fprintf(stderr, "arpsec-trace: %s\n", trace.error().c_str());
        return 1;
    }
    const auto written =
        arpsec::replay::write_trace(trace.value(), out_path, labels_path, "arpsec-trace");
    if (!written.ok()) {
        std::fprintf(stderr, "arpsec-trace: %s\n", written.error().c_str());
        return 1;
    }
    std::printf("wrote %zu frames (%zu attacks, %zu directory entries) to %s + %s\n",
                trace.value().frames.size(), trace.value().attack_count(),
                trace.value().directory.size(), out_path.c_str(), labels_path.c_str());
    return 0;
}
