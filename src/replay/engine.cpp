#include "replay/engine.hpp"

#include <algorithm>
#include <memory>
#include <span>

#include "replay/score.hpp"
#include "replay/session.hpp"
#include "telemetry/metrics.hpp"
#include "wire/frame.hpp"

namespace arpsec::replay {

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
    j["metrics"] = metrics;
    return j;
}

namespace {

double ratio(std::size_t num, std::size_t den) {
    return den == 0 ? 1.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Scores a finished session and moves its alerts into the score.
SchemeScore score_session(SchemeSession& session, const std::string& name,
                          const std::vector<SimTime>& attack_times,
                          const EngineOptions& options) {
    SchemeScore score;
    score.scheme = name;
    score.frames = session.frames();
    score.malformed = session.malformed();
    score.attack_frames = attack_times.size();

    detect::AlertSink& alerts = session.alerts();
    const MatchCounts match = match_alerts(attack_times, alerts.alerts(), options.match_window);
    score.alerts = alerts.count();
    score.true_positive_alerts = match.true_positive_alerts;
    score.false_positive_alerts = match.false_positive_alerts;
    score.detected_attacks = match.detected_attacks;
    score.precision = ratio(score.true_positive_alerts, score.alerts);
    score.recall = ratio(score.detected_attacks, score.attack_frames);

    telemetry::MetricsRegistry& metrics = session.metrics();
    metrics.counter("replay.frames").inc(score.frames);
    metrics.counter("replay.frames.malformed").inc(score.malformed);
    metrics.counter("replay.frames.attack").inc(score.attack_frames);
    alerts.export_metrics(metrics);
    score.metrics = metrics.snapshot_json();
    score.alert_list = alerts.take();
    return score;
}

}  // namespace

common::Expected<SchemeScore> Engine::run(const LabeledTrace& trace,
                                          const std::string& scheme_name) const {
    auto outcomes = run_all(trace, {scheme_name}, 1);
    if (outcomes[0].failed) return common::Expected<SchemeScore>::failure(outcomes[0].error);
    return std::move(outcomes[0].value);
}

std::vector<exp::Outcome<SchemeScore>> Engine::run_all(const LabeledTrace& trace,
                                                       const std::vector<std::string>& schemes,
                                                       std::size_t jobs) const {
    std::vector<exp::Outcome<SchemeScore>> out(schemes.size());
    std::vector<std::unique_ptr<detect::Scheme>> made(schemes.size());
    std::vector<std::size_t> known;  // slots of registered schemes, in input order
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        made[i] = registry_->make(schemes[i]);
        if (made[i] == nullptr) {
            out[i].failed = true;
            out[i].error = "replay: unknown scheme '" + schemes[i] + "'";
        } else {
            known.push_back(i);
        }
    }

    SessionOptions session_options;
    session_options.seed = trace.seed == 0 ? 1 : trace.seed;
    session_options.directory = trace.directory;
    std::vector<SimTime> attack_times;
    for (const TraceFrame& f : trace.frames) {
        if (f.attack) attack_times.push_back(f.at);
    }

    const std::size_t workers = std::min(std::max<std::size_t>(jobs, 1), known.size());
    const auto errors = exp::run_indexed(workers, workers, [&](std::size_t w) {
        // The offline LAN, scheme deployment and feed loop live in
        // SchemeSession: the same object the serve shards stream into, which
        // is what makes the serve<->replay equivalence gate hold by
        // construction.
        std::vector<std::size_t> slots;
        std::vector<std::unique_ptr<SchemeSession>> sessions;
        for (std::size_t k = w; k < known.size(); k += workers) {
            slots.push_back(known[k]);
            sessions.push_back(
                std::make_unique<SchemeSession>(std::move(made[known[k]]), session_options));
        }

        wire::FrameBuffer capture;  // recaptured for every frame
        for (const TraceFrame& f : trace.frames) {
            // This worker's own copy: the view and its parse memo live and
            // die here, shared only by this worker's sessions.
            capture.recapture(f.bytes);
            const wire::FrameView view{capture};
            for (auto& session : sessions) session->feed(f.at, view);
        }
        // Each session tracks the max timestamp it saw, which equals
        // trace.last_at() after a full feed.
        for (auto& session : sessions) session->finish(options_.grace);

        for (std::size_t k = 0; k < slots.size(); ++k) {
            out[slots[k]].value =
                score_session(*sessions[k], schemes[slots[k]], attack_times, options_);
            sessions[k].reset();  // free each LAN as soon as it is scored
        }
        // This may be a short-lived worker thread: drain its batched
        // FrameView tallies before it exits.
        wire::flush_frameview_hits();
    });
    for (std::size_t w = 0; w < workers; ++w) {
        if (errors[w].empty()) continue;
        for (std::size_t k = w; k < known.size(); k += workers) {
            out[known[k]].failed = true;
            out[known[k]].error = errors[w];
        }
    }
    return out;
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
