#include "telemetry/trace.hpp"

#include "common/file.hpp"

namespace arpsec::telemetry {

void EventTracer::instant(std::string name, std::string category, common::SimTime at,
                          std::vector<std::pair<std::string, std::string>> args) {
    events_.push_back(TraceEvent{std::move(name), std::move(category),
                                 TraceEvent::Phase::kInstant, at, common::Duration::zero(),
                                 std::move(args)});
    open_.push_back(false);
}

void EventTracer::complete(std::string name, std::string category, common::SimTime start,
                           common::Duration dur,
                           std::vector<std::pair<std::string, std::string>> args) {
    events_.push_back(TraceEvent{std::move(name), std::move(category),
                                 TraceEvent::Phase::kComplete, start, dur, std::move(args)});
    open_.push_back(false);
}

EventTracer::SpanId EventTracer::begin_span(std::string name, std::string category,
                                            common::SimTime at,
                                            std::vector<std::pair<std::string, std::string>> args) {
    const SpanId id = events_.size();
    events_.push_back(TraceEvent{std::move(name), std::move(category),
                                 TraceEvent::Phase::kComplete, at, common::Duration::zero(),
                                 std::move(args)});
    open_.push_back(true);
    return id;
}

void EventTracer::end_span(SpanId id, common::SimTime at) {
    if (id >= events_.size() || !open_[id]) return;
    events_[id].dur = at - events_[id].ts;
    open_[id] = false;
}

namespace {

Json event_json(const TraceEvent& e) {
    Json j = Json::object();
    j["name"] = e.name;
    j["cat"] = e.category;
    j["ph"] = e.phase == TraceEvent::Phase::kComplete ? "X" : "i";
    j["ts"] = static_cast<double>(e.ts.nanos()) / 1e3;  // microseconds
    if (e.phase == TraceEvent::Phase::kComplete) {
        j["dur"] = static_cast<double>(e.dur.count()) / 1e3;
    } else {
        j["s"] = "g";  // instant scope: global
    }
    j["pid"] = 1;
    j["tid"] = 1;
    if (!e.args.empty()) {
        Json args = Json::object();
        for (const auto& [k, v] : e.args) args[k] = v;
        j["args"] = std::move(args);
    }
    return j;
}

}  // namespace

Json EventTracer::chrome_trace_json() const {
    Json events = Json::array();
    for (const TraceEvent& e : events_) events.push_back(event_json(e));
    Json root = Json::object();
    root["traceEvents"] = std::move(events);
    root["displayTimeUnit"] = "ms";
    return root;
}

bool EventTracer::write_chrome_trace(const std::string& path) const {
    return common::write_file(path, chrome_trace_json().dump(2) + "\n").ok();
}

bool EventTracer::write_jsonl(const std::string& path) const {
    std::string text;
    for (const TraceEvent& e : events_) {
        text += event_json(e).dump();
        text += '\n';
    }
    return common::write_file(path, text).ok();
}

}  // namespace arpsec::telemetry
