#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/time.hpp"
#include "detect/scheme.hpp"
#include "telemetry/json.hpp"
#include "wire/buffer.hpp"
#include "wire/pcap_reader.hpp"

namespace arpsec::replay {

/// One frame of a replayable trace: capture timestamp, raw bytes, and the
/// ground-truth label (true when the frame is a poisoning attempt).
struct TraceFrame {
    common::SimTime at;
    wire::Bytes bytes;
    bool attack = false;
};

/// A trace plus everything the scoring side needs: ground-truth labels and
/// the (IP, MAC) directory the recorded LAN actually used, so schemes that
/// require a priori bindings (static entries, S-ARP enrollment, DAI) can be
/// deployed against the capture.
struct LabeledTrace {
    std::vector<TraceFrame> frames;
    std::vector<detect::HostRecord> directory;
    std::uint64_t seed = 0;
    std::string origin;  // "scenario-gen" or the source pcap path

    [[nodiscard]] std::size_t attack_count() const;
    [[nodiscard]] common::SimTime last_at() const;
};

/// The ground-truth sidecar of a pcap (`arpsec.trace-labels.v1`): which
/// record indices are poisoning attempts, plus the LAN directory.
struct TraceLabels {
    static constexpr const char* kSchema = "arpsec.trace-labels.v1";

    std::uint64_t seed = 0;
    std::size_t frame_count = 0;
    std::vector<std::size_t> attack_frames;  // ascending pcap record indices
    std::vector<detect::HostRecord> directory;

    [[nodiscard]] telemetry::Json to_json(const std::string& producer) const;
    static common::Expected<TraceLabels> parse(const std::string& text);
};

/// Extracts the sidecar view of an in-memory labeled trace.
[[nodiscard]] TraceLabels labels_of(const LabeledTrace& trace);

/// Labels the frames of a capture, in record order, with its sidecar;
/// fails when the label document disagrees with the capture (frame count
/// mismatch, index out of range). The one check behind both loaders.
[[nodiscard]] common::Expected<LabeledTrace> label_frames(std::vector<TraceFrame> frames,
                                                          const TraceLabels& labels,
                                                          std::string origin);

/// Joins a parsed pcap with its sidecar through `label_frames`. Copies the
/// record bytes.
[[nodiscard]] common::Expected<LabeledTrace> join_labels(const wire::PcapTrace& pcap,
                                                         const TraceLabels& labels,
                                                         std::string origin);

}  // namespace arpsec::replay
