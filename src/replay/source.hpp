#pragma once

#include <cstdint>
#include <string>

#include "check/scenario_gen.hpp"
#include "common/expected.hpp"
#include "common/time.hpp"
#include "replay/trace.hpp"

namespace arpsec::replay {

/// Loads a classic pcap plus its `arpsec.trace-labels.v1` sidecar.
class PcapFileSource {
public:
    PcapFileSource(std::string pcap_path, std::string labels_path)
        : pcap_path_(std::move(pcap_path)), labels_path_(std::move(labels_path)) {}

    [[nodiscard]] common::Expected<LabeledTrace> load();

private:
    std::string pcap_path_;
    std::string labels_path_;
};

/// Renders check::ScenarioGen scenarios through the full simulator and
/// records the mirror-port frame stream with attacker-origin ground truth.
/// Epochs (one scenario each, seeds first_seed, first_seed+1, ...) are
/// concatenated on a shifted timeline until the trace reaches
/// target_frames. Epoch rendering fans out over exp::map_indexed, but the
/// resulting trace is byte-identical for every `jobs` value: epochs are
/// appended strictly in seed order and the stop condition only looks at
/// cumulative frame counts at epoch boundaries.
class ScenarioTraceSource {
public:
    struct Options {
        std::uint64_t first_seed = 1;
        std::size_t target_frames = 10000;
        std::size_t jobs = 1;
        check::GenOptions gen;  // scheme pool is ignored; epochs run "none"
        /// Idle gap inserted between consecutive epochs on the timeline.
        common::Duration epoch_gap = common::Duration::millis(100);
        /// Safety valve against unreachable targets.
        std::size_t max_epochs = 4096;
    };

    explicit ScenarioTraceSource(Options options) : options_(std::move(options)) {}

    [[nodiscard]] common::Expected<LabeledTrace> load();

private:
    Options options_;
};

/// Writes `trace` as a pcap plus its sidecar; fails on I/O errors.
[[nodiscard]] common::Expected<bool> write_trace(const LabeledTrace& trace,
                                                 const std::string& pcap_path,
                                                 const std::string& labels_path,
                                                 const std::string& producer);

}  // namespace arpsec::replay
