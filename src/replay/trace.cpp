#include "replay/trace.hpp"

#include <algorithm>
#include <utility>

namespace arpsec::replay {

using telemetry::Json;

std::size_t LabeledTrace::attack_count() const {
    return static_cast<std::size_t>(
        std::count_if(frames.begin(), frames.end(),
                      [](const TraceFrame& f) { return f.attack; }));
}

common::SimTime LabeledTrace::last_at() const {
    return frames.empty() ? common::SimTime::zero() : frames.back().at;
}

Json TraceLabels::to_json(const std::string& producer) const {
    Json j = Json::object();
    j["schema"] = kSchema;
    j["producer"] = producer;
    j["seed"] = seed;
    j["frame_count"] = static_cast<std::uint64_t>(frame_count);
    Json attacks = Json::array();
    for (const std::size_t idx : attack_frames) {
        attacks.push_back(static_cast<std::uint64_t>(idx));
    }
    j["attack_frames"] = std::move(attacks);
    Json dir = Json::array();
    for (const detect::HostRecord& r : directory) {
        Json entry = Json::object();
        entry["name"] = r.name;
        entry["ip"] = r.ip.to_string();
        entry["mac"] = r.mac.to_string();
        dir.push_back(std::move(entry));
    }
    j["directory"] = std::move(dir);
    return j;
}

common::Expected<TraceLabels> TraceLabels::parse(const std::string& text) {
    using Result = common::Expected<TraceLabels>;
    const auto doc = Json::parse(text);
    if (!doc || !doc->is_object()) {
        return Result::failure("labels: not a JSON object");
    }
    const Json* schema = doc->find("schema");
    if (schema == nullptr || !schema->is_string() || schema->as_string() != kSchema) {
        return Result::failure(std::string{"labels: missing or unexpected schema (want "} +
                               kSchema + ")");
    }
    TraceLabels out;
    if (const Json* seed = doc->find("seed"); seed != nullptr && seed->is_int()) {
        out.seed = static_cast<std::uint64_t>(seed->as_int());
    }
    const Json* count = doc->find("frame_count");
    if (count == nullptr || !count->is_int() || count->as_int() < 0) {
        return Result::failure("labels: missing frame_count");
    }
    out.frame_count = static_cast<std::size_t>(count->as_int());
    const Json* attacks = doc->find("attack_frames");
    if (attacks == nullptr || !attacks->is_array()) {
        return Result::failure("labels: missing attack_frames array");
    }
    for (const Json& idx : attacks->as_array()) {
        if (!idx.is_int() || idx.as_int() < 0) {
            return Result::failure("labels: attack_frames entries must be non-negative ints");
        }
        out.attack_frames.push_back(static_cast<std::size_t>(idx.as_int()));
    }
    if (const Json* dir = doc->find("directory"); dir != nullptr && dir->is_array()) {
        for (const Json& entry : dir->as_array()) {
            const Json* name = entry.find("name");
            const Json* ip = entry.find("ip");
            const Json* mac = entry.find("mac");
            if (name == nullptr || ip == nullptr || mac == nullptr || !name->is_string() ||
                !ip->is_string() || !mac->is_string()) {
                return Result::failure("labels: malformed directory entry");
            }
            auto parsed_ip = wire::Ipv4Address::parse(ip->as_string());
            if (!parsed_ip.ok()) return Result::failure("labels: " + parsed_ip.error());
            auto parsed_mac = wire::MacAddress::parse(mac->as_string());
            if (!parsed_mac.ok()) return Result::failure("labels: " + parsed_mac.error());
            out.directory.push_back(
                {name->as_string(), parsed_ip.value(), parsed_mac.value()});
        }
    }
    return out;
}

TraceLabels labels_of(const LabeledTrace& trace) {
    TraceLabels labels;
    labels.seed = trace.seed;
    labels.frame_count = trace.frames.size();
    for (std::size_t i = 0; i < trace.frames.size(); ++i) {
        if (trace.frames[i].attack) labels.attack_frames.push_back(i);
    }
    labels.directory = trace.directory;
    return labels;
}

common::Expected<LabeledTrace> label_frames(std::vector<TraceFrame> frames,
                                            const TraceLabels& labels, std::string origin) {
    using Result = common::Expected<LabeledTrace>;
    if (labels.frame_count != frames.size()) {
        return Result::failure("labels: frame_count " + std::to_string(labels.frame_count) +
                               " does not match pcap record count " +
                               std::to_string(frames.size()));
    }
    for (const std::size_t idx : labels.attack_frames) {
        if (idx >= frames.size()) {
            return Result::failure("labels: attack frame index " + std::to_string(idx) +
                                   " out of range (" + std::to_string(frames.size()) +
                                   " frames)");
        }
        frames[idx].attack = true;
    }
    LabeledTrace trace;
    trace.frames = std::move(frames);
    trace.directory = labels.directory;
    trace.seed = labels.seed;
    trace.origin = std::move(origin);
    return trace;
}

common::Expected<LabeledTrace> join_labels(const wire::PcapTrace& pcap,
                                           const TraceLabels& labels, std::string origin) {
    std::vector<TraceFrame> frames;
    frames.reserve(pcap.records.size());
    for (const wire::PcapRecord& rec : pcap.records) frames.push_back({rec.at, rec.bytes, false});
    return label_frames(std::move(frames), labels, std::move(origin));
}

}  // namespace arpsec::replay
