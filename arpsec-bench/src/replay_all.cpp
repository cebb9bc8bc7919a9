// replay-all: the analyst's default arpsec-replay run. Each repetition
// loads the seeded pcap with PcapFileSource and scores it with
// Engine::run_all over every registered scheme on one thread.

#include <algorithm>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "detect/registry.hpp"
#include "replay/engine.hpp"
#include "replay/score.hpp"
#include "replay/session.hpp"
#include "replay/source.hpp"
#include "serve/alert_stream.hpp"
#include "wire/frame.hpp"
#include "wire/pcap_reader.hpp"

namespace arpsec::bench {

namespace {

constexpr std::size_t kBatch = 1024;
constexpr std::size_t kPrefetchAhead = 8;

bool is_monitor_scheme(const std::string& name) {
    const auto& m = monitor_schemes();
    return std::find(m.begin(), m.end(), name) != m.end();
}

AlertDigest digest_of(const std::vector<detect::Alert>& alerts) {
    AlertDigest d;
    for (const detect::Alert& a : alerts) d.add(serve::alert_line(a));
    return d;
}

double ratio(std::size_t num, std::size_t den) {
    return den == 0 ? 1.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// One analyst run; returns its wall time in seconds (negative on failure).
double timed_run(const TraceFiles& files, const replay::Engine& engine,
                 const std::vector<std::string>& schemes,
                 std::vector<exp::Outcome<replay::SchemeScore>>& outcomes, std::size_t& frames,
                 std::string& error) {
    const std::int64_t start = now_ns();
    auto trace = replay::PcapFileSource{files.pcap, files.labels}.load();
    if (!trace.ok()) {
        error = trace.error();
        return -1.0;
    }
    outcomes = engine.run_all(trace.value(), schemes, 1);
    const double wall = static_cast<double>(now_ns() - start) / 1e9;
    frames = trace.value().frames.size();
    return wall;
}

/// The traced pass: the same work as one repetition, re-expressed as the
/// public per-layer calls run_all makes internally, with one span per
/// 1024-frame batch per layer (one span per call where a layer is not
/// per-frame). Session advance and scheme feed interleave per frame, so
/// their per-batch spans carry the summed time of that batch and are laid
/// out back to back inside it.
void traced_pass(const Options& options, const TraceFiles& files,
                 const detect::Registry& registry, const std::vector<std::string>& schemes,
                 double untraced_wall_s, const std::vector<AlertDigest>& reference,
                 Result& result) {
    Ledger ledger;
    ledger.set_repetition(1);
    wire::reset_frameview_stats();
    const replay::EngineOptions engine_options{};
    const std::int64_t start = now_ns();
    const Ledger::Id rep = ledger.open("replay-all", Ledger::kRoot);

    std::int64_t t = now_ns();
    auto pcap = wire::PcapReader::read_file(files.pcap);
    if (!pcap.ok()) {
        result.fail(1, "traced: " + pcap.error());
        return;
    }
    const std::size_t n = pcap.value().records.size();
    ledger.layer("wire.pcap_read", t, now_ns() - t, rep, n);

    t = now_ns();
    std::ifstream in{files.labels};
    std::ostringstream text;
    text << in.rdbuf();
    auto labels = replay::TraceLabels::parse(text.str());
    if (!labels.ok()) {
        result.fail(1, "traced: " + labels.error());
        return;
    }
    auto joined = replay::join_labels(pcap.value(), labels.value(), files.pcap);
    if (!joined.ok()) {
        result.fail(1, "traced: " + joined.error());
        return;
    }
    const replay::LabeledTrace trace = std::move(joined).value();
    pcap = wire::PcapTrace{};
    ledger.layer("replay.labels", t, now_ns() - t, rep, 1);

    std::vector<wire::FrameView> views;
    views.reserve(n);
    for (std::size_t b = 0; b < n; b += kBatch) {
        const std::size_t end = std::min(b + kBatch, n);
        const Ledger::Id batch = ledger.open("batch", rep);
        t = now_ns();
        for (std::size_t i = b; i < end; ++i) {
            views.emplace_back(wire::FrameBuffer::capture(
                std::span<const std::uint8_t>(trace.frames[i].bytes)));
        }
        ledger.layer("wire.capture", t, now_ns() - t, batch, end - b);
        t = now_ns();
        for (std::size_t i = b; i < end; ++i) views[i].prime();
        ledger.layer("wire.prime", t, now_ns() - t, batch, end - b);
        ledger.close(batch);
    }

    replay::SessionOptions session_options;
    session_options.seed = trace.seed == 0 ? 1 : trace.seed;
    session_options.directory = trace.directory;

    Quality quality;
    std::size_t total_alerts = 0;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        const std::string& name = schemes[s];
        const Ledger::Id sid = ledger.open(name, rep);
        t = now_ns();
        auto owned =
            std::make_unique<replay::SchemeSession>(registry.make(name), session_options);
        replay::SchemeSession& session = *owned;
        ledger.layer("replay.session.deploy", t, now_ns() - t, sid, 1);
        for (std::size_t b = 0; b < n; b += kBatch) {
            const std::size_t end = std::min(b + kBatch, n);
            std::int64_t advance = 0;
            std::int64_t feed = 0;
            const std::int64_t batch_start = now_ns();
            std::int64_t t0 = batch_start;
            for (std::size_t i = b; i < end; ++i) {
                if (i + kPrefetchAhead < n) views[i + kPrefetchAhead].prefetch();
                session.advance_to(trace.frames[i].at);
                const std::int64_t t1 = now_ns();
                (void)session.feed(trace.frames[i].at, views[i]);
                const std::int64_t t2 = now_ns();
                advance += t1 - t0;
                feed += t2 - t1;
                t0 = t2;
            }
            ledger.layer("replay.session.advance", batch_start, advance, sid, end - b);
            ledger.layer("detect." + name, batch_start + advance, feed, sid, end - b);
        }
        t = now_ns();
        session.finish(engine_options.grace);
        ledger.layer("replay.session.finish", t, now_ns() - t, sid, 1);

        t = now_ns();
        std::vector<detect::Alert> alerts = session.alerts().alerts();
        std::vector<common::SimTime> attack_times;
        for (const replay::TraceFrame& f : trace.frames) {
            if (f.attack) attack_times.push_back(f.at);
        }
        const std::size_t attacks = attack_times.size();
        const replay::MatchCounts match =
            replay::match_alerts(std::move(attack_times), alerts, engine_options.match_window);
        ledger.layer("replay.score", t, now_ns() - t, sid, alerts.size());

        t = now_ns();
        owned.reset();
        ledger.layer("replay.session.teardown", t, now_ns() - t, sid, 1);

        t = now_ns();
        const AlertDigest digest = digest_of(alerts);
        ledger.layer("bench.digest", t, now_ns() - t, sid, alerts.size());
        ledger.close(sid);

        total_alerts += alerts.size();
        if (digest != reference[s]) {
            result.fail(1, "traced: " + name + " alerts differ from the untraced run_all");
        }
        if (is_monitor_scheme(name)) {
            quality.precision += ratio(match.true_positive_alerts, alerts.size());
            quality.recall += ratio(match.detected_attacks, attacks);
            result.layer("detect." + name + ".alerts", "count",
                         static_cast<double>(alerts.size()));
        }
    }
    t = now_ns();
    views = {};
    ledger.layer("wire.release", t, now_ns() - t, rep, n);
    ledger.close(rep);
    const double wall_ns = static_cast<double>(now_ns() - start);
    const wire::FrameViewStats fv = wire::frameview_stats();
    if (!ledger.write(options.trace_path)) {
        result.fail(1, "cannot write trace " + options.trace_path);
    }

    const auto per_frame = [&](const std::string& layer) {
        return static_cast<double>(ledger.self_ns(layer)) / static_cast<double>(n);
    };
    const auto k = static_cast<double>(monitor_schemes().size());
    result.layer("wire.pcap_read.ns_per_frame", "ns/frame", per_frame("wire.pcap_read"));
    result.layer("wire.capture.ns_per_frame", "ns/frame", per_frame("wire.capture"));
    result.layer("wire.prime.ns_per_frame", "ns/frame", per_frame("wire.prime"));
    result.layer("wire.release.ns_per_frame", "ns/frame", per_frame("wire.release"));
    result.layer("wire.frameview.hit_ratio", "ratio",
                 static_cast<double>(fv.parse_hits) /
                     static_cast<double>(std::max<std::uint64_t>(1, fv.parse_hits +
                                                                        fv.parse_misses)));
    result.layer("replay.labels.ms", "ms",
                 static_cast<double>(ledger.self_ns("replay.labels")) / 1e6);
    result.layer("replay.session.advance.ns_per_frame", "ns/frame",
                 per_frame("replay.session.advance"));
    result.layer("replay.session.deploy_ms", "ms",
                 static_cast<double>(ledger.self_ns("replay.session.deploy")) / 1e6);
    result.layer("replay.session.finish_ms", "ms",
                 static_cast<double>(ledger.self_ns("replay.session.finish")) / 1e6);
    result.layer("replay.session.teardown_ms", "ms",
                 static_cast<double>(ledger.self_ns("replay.session.teardown")) / 1e6);
    result.layer("replay.score.ns_per_alert", "ns/alert",
                 static_cast<double>(ledger.self_ns("replay.score")) /
                     static_cast<double>(std::max<std::size_t>(1, total_alerts)));
    double passive = 0.0;
    for (const std::string& name : schemes) {
        if (is_monitor_scheme(name)) {
            result.layer("detect." + name + ".ns_per_frame", "ns/frame",
                         per_frame("detect." + name));
        } else {
            passive += per_frame("detect." + name);
        }
    }
    result.layer("detect.passive.ns_per_frame", "ns/frame", passive);
    result.layer("detect.macro_precision", "ratio", quality.precision / k);
    result.layer("detect.macro_recall", "ratio", quality.recall / k);
    result.layer("trace.residual_pct", "%",
                 100.0 * (1.0 - static_cast<double>(ledger.total_self_ns()) / wall_ns));
    result.layer("trace.overhead_pct", "%", 100.0 * (wall_ns / 1e9 / untraced_wall_s - 1.0));
}

}  // namespace

void run_replay_all(const Options& options, Result& result) {
    const Sizes sizes = sizes_for(options);
    const detect::Registry registry;
    std::vector<std::string> schemes;
    for (const auto& entry : registry.entries()) schemes.push_back(entry.name);
    const replay::Engine engine{registry};

    auto files = write_seeded_trace(options, sizes.trace_frames, "replay-all");
    auto empty = write_seeded_trace(options, 0, "replay-all-empty");
    if (!files.ok() || !empty.ok()) {
        result.fail(1, "trace: " + (files.ok() ? empty.error() : files.error()));
        return;
    }

    std::vector<exp::Outcome<replay::SchemeScore>> outcomes;
    std::size_t frames = 0;
    std::string error;
    const std::int64_t warmup_end =
        now_ns() + static_cast<std::int64_t>(warmup_seconds(options) * 1e9);
    do {
        if (timed_run(files.value(), engine, schemes, outcomes, frames, error) < 0.0) {
            result.fail(1, "warm-up: " + error);
            return;
        }
    } while (now_ns() < warmup_end);

    std::vector<double> setup;
    std::vector<double> throughput;
    std::vector<double> latency_ms;
    std::vector<AlertDigest> reference;
    Quality quality;
    RepBudget budget{options.untraced_seconds(), 3};
    while (budget.another()) {
        // setup_s: the same run on a zero-frame trace — load, deploy every
        // scheme's offline LAN, score nothing.
        if (!sample_setup(setup, [&] {
                return timed_run(empty.value(), engine, schemes, outcomes, frames, error) >= 0.0;
            })) {
            result.fail(1, "setup: " + error);
            return;
        }
        trim_heap();
        const double wall = timed_run(files.value(), engine, schemes, outcomes, frames, error);
        result.attempted += schemes.size();
        if (wall < 0.0) {
            result.fail(schemes.size(), "load: " + error);
            break;
        }
        throughput.push_back(static_cast<double>(frames) / wall);
        latency_ms.push_back(wall * 1e3);

        const bool first = reference.empty();
        Quality q;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const exp::Outcome<replay::SchemeScore>& o = outcomes[s];
            if (o.failed) {
                result.fail(1, schemes[s] + ": " + o.error);
                if (first) reference.push_back({});
                continue;
            }
            const replay::SchemeScore& score = o.value;
            if (score.frames != frames) {
                result.fail(1, schemes[s] + ": scored " + std::to_string(score.frames) +
                                   " of " + std::to_string(frames) + " frames");
            }
            const AlertDigest d = digest_of(score.alert_list);
            if (first) {
                reference.push_back(d);
            } else if (d != reference[s]) {
                result.fail(1, schemes[s] + ": alert digest changed between repetitions");
            }
            if (is_monitor_scheme(schemes[s])) {
                q.precision += score.precision;
                q.recall += score.recall;
            }
        }
        if (first) {
            const auto k = static_cast<double>(monitor_schemes().size());
            quality = {q.precision / k, q.recall / k};
            result.details["frames"] = static_cast<std::uint64_t>(frames);
        }
    }
    result.repetitions = latency_ms.size();

    result.add("setup_s", "s", setup);
    result.add("peak_rss_mb", "MB", {peak_rss_mb()});
    result.add("throughput_per_s", "1/s", throughput);
    result.add("latency_p50_ms", "ms", latency_ms);
    result.add("quality", "ratio", {quality.f1()});
    result.details["replay_precision"] = quality.precision;
    result.details["replay_recall"] = quality.recall;
    telemetry::Json digests = telemetry::Json::object();
    for (std::size_t s = 0; s < reference.size(); ++s) {
        digests[schemes[s]] = reference[s].to_string();
    }
    result.details["alert_digests"] = std::move(digests);

    if (options.traced() && result.failed == 0) {
        traced_pass(options, files.value(), registry, schemes, median(latency_ms) / 1e3,
                    reference, result);
    }
}

}  // namespace arpsec::bench
