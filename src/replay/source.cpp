#include "replay/source.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "check/harness.hpp"
#include "detect/registry.hpp"
#include "exp/executor.hpp"
#include "wire/pcap_writer.hpp"

namespace arpsec::replay {

namespace {

/// Accumulates the mirror-port stream of one harness run.
class CaptureRecorder final : public check::FrameRecorder {
public:
    void on_monitor_frame(common::SimTime at, bool attacker_origin,
                          std::span<const std::uint8_t> raw) override {
        frames.push_back({at, wire::Bytes{raw.begin(), raw.end()}, attacker_origin});
    }

    std::vector<TraceFrame> frames;
};

struct Epoch {
    std::vector<TraceFrame> frames;
    std::vector<detect::HostRecord> directory;
};

Epoch render_epoch(const check::GenOptions& gen, std::uint64_t seed) {
    check::GenOptions opts = gen;
    opts.schemes = {"none"};  // record raw attacks; schemes are applied at replay time
    check::CheckScenario scenario = check::ScenarioGen{opts}.generate(seed);

    const detect::Registry registry;
    const std::vector<std::unique_ptr<check::Oracle>> no_oracles;
    check::Harness harness{registry, no_oracles};
    CaptureRecorder recorder;
    harness.set_recorder(&recorder);
    (void)harness.run(scenario);

    return {std::move(recorder.frames), check::lan_directory(scenario)};
}

}  // namespace

common::Expected<LabeledTrace> PcapFileSource::load() {
    using Result = common::Expected<LabeledTrace>;
    std::vector<TraceFrame> frames;
    auto pcap = wire::PcapReader::stream_file(pcap_path_, [&](wire::PcapRecord&& rec) {
        frames.push_back({rec.at, std::move(rec.bytes), false});
    });
    if (!pcap.ok()) return Result::failure(pcap.error());
    if (pcap->link_type != wire::kLinkTypeEthernet) {
        return Result::failure("pcap: unsupported link type " + std::to_string(pcap->link_type) +
                               " (want 1, Ethernet)");
    }

    std::ifstream in{labels_path_};
    if (!in) return Result::failure("labels: cannot open '" + labels_path_ + "'");
    std::string text;
    std::array<char, 4096> chunk;
    while (in.read(chunk.data(), chunk.size()) || in.gcount() > 0) {
        text.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
    }
    if (in.bad()) return Result::failure("labels: cannot read '" + labels_path_ + "'");
    auto labels = TraceLabels::parse(text);
    if (!labels.ok()) return Result::failure(labels.error());

    return label_frames(std::move(frames), labels.value(), pcap_path_);
}

common::Expected<LabeledTrace> ScenarioTraceSource::load() {
    using Result = common::Expected<LabeledTrace>;
    LabeledTrace trace;
    trace.seed = options_.first_seed;
    trace.origin = "scenario-gen";

    // Ground-truth bindings, merged across epochs. Static addressing is
    // deterministic per host index, so epochs agree on every shared IP.
    std::map<std::uint32_t, detect::HostRecord> directory;

    const std::size_t jobs = options_.jobs == 0 ? 1 : options_.jobs;
    common::SimTime offset = common::SimTime::zero();
    std::size_t next_epoch = 0;
    bool done = options_.target_frames == 0;
    while (!done && next_epoch < options_.max_epochs) {
        const std::size_t batch =
            std::min(jobs, options_.max_epochs - next_epoch);
        const std::uint64_t batch_first = options_.first_seed + next_epoch;
        auto epochs = exp::map_indexed<Epoch>(batch, jobs, [&](std::size_t i) {
            return render_epoch(options_.gen, batch_first + i);
        });
        for (auto& outcome : epochs) {
            if (outcome.failed) return Result::failure("trace: " + outcome.error);
            Epoch& epoch = outcome.value;
            for (const detect::HostRecord& r : epoch.directory) {
                directory.emplace(r.ip.value(), r);
            }
            for (TraceFrame& f : epoch.frames) {
                f.at = common::SimTime{offset.nanos() + f.at.nanos()};
                trace.frames.push_back(std::move(f));
            }
            if (!trace.frames.empty()) {
                offset = trace.frames.back().at + options_.epoch_gap;
            }
            ++next_epoch;
            if (trace.frames.size() >= options_.target_frames) {
                done = true;
                break;
            }
        }
    }
    if (!done) {
        return Result::failure("trace: target_frames " +
                               std::to_string(options_.target_frames) + " not reached after " +
                               std::to_string(next_epoch) + " epochs");
    }
    for (auto& [ip, record] : directory) trace.directory.push_back(record);
    return trace;
}

common::Expected<bool> write_trace(const LabeledTrace& trace, const std::string& pcap_path,
                                   const std::string& labels_path,
                                   const std::string& producer) {
    using Result = common::Expected<bool>;
    try {
        wire::PcapWriter writer{pcap_path};
        for (const TraceFrame& f : trace.frames) writer.write(f.at, f.bytes);
    } catch (const std::exception& e) {
        return Result::failure(std::string{"trace: "} + e.what());
    }
    std::ofstream out{labels_path};
    if (!out) return Result::failure("trace: cannot write '" + labels_path + "'");
    out << labels_of(trace).to_json(producer).dump(2) << "\n";
    if (!out) return Result::failure("trace: write to '" + labels_path + "' failed");
    return true;
}

}  // namespace arpsec::replay
