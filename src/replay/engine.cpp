#include "replay/engine.hpp"

#include <memory>
#include <stdexcept>

#include "replay/score.hpp"
#include "replay/session.hpp"
#include "telemetry/metrics.hpp"
#include "wire/ethernet.hpp"

namespace arpsec::replay {

using common::Duration;
using common::SimTime;
using telemetry::Json;

Json SchemeScore::to_json() const {
    Json j = Json::object();
    j["scheme"] = scheme;
    j["frames"] = frames;
    j["malformed"] = malformed;
    j["attack_frames"] = static_cast<std::uint64_t>(attack_frames);
    j["alerts"] = static_cast<std::uint64_t>(alerts);
    j["true_positive_alerts"] = static_cast<std::uint64_t>(true_positive_alerts);
    j["false_positive_alerts"] = static_cast<std::uint64_t>(false_positive_alerts);
    j["detected_attacks"] = static_cast<std::uint64_t>(detected_attacks);
    j["precision"] = precision;
    j["recall"] = recall;
    j["wall_seconds"] = wall_seconds;
    j["frames_per_second"] = frames_per_second;
    j["metrics"] = metrics;
    return j;
}

std::vector<wire::FrameView> Engine::make_views(const LabeledTrace& trace) {
    std::vector<wire::FrameView> views;
    views.reserve(trace.frames.size());
    for (const TraceFrame& f : trace.frames) {
        wire::FrameView view{wire::FrameBuffer::capture(std::span<const std::uint8_t>(f.bytes))};
        view.prime();
        views.push_back(std::move(view));
    }
    return views;
}

common::Expected<SchemeScore> Engine::run(const LabeledTrace& trace,
                                          const std::string& scheme_name) const {
    return run(trace, make_views(trace), scheme_name);
}

common::Expected<SchemeScore> Engine::run(const LabeledTrace& trace,
                                          std::span<const wire::FrameView> views,
                                          const std::string& scheme_name) const {
    using Result = common::Expected<SchemeScore>;
    if (views.size() != trace.frames.size()) {
        return Result::failure("replay: views/frames size mismatch");
    }
    std::unique_ptr<detect::Scheme> scheme = registry_->make(scheme_name);
    if (scheme == nullptr) {
        return Result::failure("replay: unknown scheme '" + scheme_name + "'");
    }

    // The offline LAN, scheme deployment, and feed loop live in
    // SchemeSession — the same object the serve shards stream into, which
    // is what makes the serve<->replay equivalence gate hold by
    // construction.
    SessionOptions session_options;
    session_options.seed = trace.seed == 0 ? 1 : trace.seed;
    session_options.directory = trace.directory;
    SchemeSession session{std::move(scheme), session_options};

    SchemeScore score;
    score.scheme = scheme_name;
    score.attack_frames = trace.attack_count();

    // The Rep allocations behind the views are scattered on the heap and
    // the working set of a 100k-frame trace exceeds cache; prefetching a
    // few frames ahead hides the streaming miss for every scheme.
    constexpr std::size_t kPrefetchAhead = 8;

    common::Stopwatch watch;
    for (std::size_t i = 0; i < trace.frames.size(); ++i) {
        if (i + kPrefetchAhead < views.size()) views[i + kPrefetchAhead].prefetch();
        const TraceFrame& f = trace.frames[i];
        session.feed(f.at, views[i]);
    }
    // The session tracks the max timestamp it saw, which equals
    // trace.last_at() after a full feed.
    session.finish(options_.grace);
    const double elapsed = watch.elapsed_seconds();
    score.frames = session.frames();
    score.malformed = session.malformed();

    std::vector<SimTime> attack_times;
    for (const TraceFrame& f : trace.frames) {
        if (f.attack) attack_times.push_back(f.at);
    }
    const detect::AlertSink& alerts = session.alerts();
    const MatchCounts match =
        match_alerts(std::move(attack_times), alerts.alerts(), options_.match_window);
    score.true_positive_alerts = match.true_positive_alerts;
    score.false_positive_alerts = match.false_positive_alerts;
    score.detected_attacks = match.detected_attacks;

    score.alerts = alerts.count();
    score.alert_list = alerts.alerts();
    score.precision = score.alerts == 0
                          ? 1.0
                          : static_cast<double>(score.true_positive_alerts) /
                                static_cast<double>(score.alerts);
    score.recall = score.attack_frames == 0
                       ? 1.0
                       : static_cast<double>(score.detected_attacks) /
                             static_cast<double>(score.attack_frames);
    if (options_.timing && elapsed > 0.0) {
        score.wall_seconds = elapsed;
        score.frames_per_second = static_cast<double>(score.frames) / elapsed;
    }

    telemetry::MetricsRegistry& metrics = session.metrics();
    metrics.counter("replay.frames").inc(score.frames);
    metrics.counter("replay.frames.malformed").inc(score.malformed);
    metrics.counter("replay.frames.attack").inc(score.attack_frames);
    alerts.export_metrics(metrics);
    score.metrics = metrics.snapshot_json();
    // This may be a short-lived worker thread (run_all fan-out): drain its
    // batched FrameView hit tallies before it exits.
    wire::flush_frameview_hits();
    return score;
}

std::vector<exp::Outcome<SchemeScore>> Engine::run_all(const LabeledTrace& trace,
                                                       const std::vector<std::string>& schemes,
                                                       std::size_t jobs) const {
    // Parse the whole trace once, before any worker thread exists: priming
    // writes every memo on this thread, so workers only ever read the
    // shared buffers (no synchronization needed on the memo fields).
    const std::vector<wire::FrameView> views = make_views(trace);
    return exp::map_indexed<SchemeScore>(schemes.size(), jobs, [&](std::size_t i) {
        auto result = run(trace, views, schemes[i]);
        if (!result.ok()) throw std::runtime_error(result.error());
        return std::move(result).value();
    });
}

Json Engine::artifact(const LabeledTrace& trace, const std::vector<SchemeScore>& scores,
                      const std::string& producer) {
    Json j = Json::object();
    j["schema"] = kSchema;
    j["producer"] = producer;
    Json t = Json::object();
    t["origin"] = trace.origin;
    t["seed"] = trace.seed;
    t["frames"] = static_cast<std::uint64_t>(trace.frames.size());
    t["attack_frames"] = static_cast<std::uint64_t>(trace.attack_count());
    t["duration_seconds"] = trace.last_at().to_seconds();
    j["trace"] = std::move(t);
    Json rows = Json::array();
    for (const SchemeScore& s : scores) rows.push_back(s.to_json());
    j["schemes"] = std::move(rows);
    return j;
}

}  // namespace arpsec::replay
