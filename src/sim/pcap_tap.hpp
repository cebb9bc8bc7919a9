#pragma once

#include <string>
#include <utility>

#include "sim/network.hpp"
#include "wire/pcap_writer.hpp"

namespace arpsec::sim {

/// Global capture tap that records every transmitted frame to a pcap file —
/// the equivalent of running tcpdump on a mirror of the whole fabric.
class PcapTap final : public CaptureTap {
public:
    explicit PcapTap(wire::PcapWriter writer) : writer_(std::move(writer)) {}

    void on_capture(common::SimTime at, Endpoint from, Endpoint to,
                    const wire::FrameView& view) override {
        (void)from;
        (void)to;
        writer_.write(at, view.bytes());
    }

    [[nodiscard]] std::size_t frames() const { return writer_.frames_written(); }

    /// Closes the capture; fails, naming the path, when a frame or the
    /// close did not reach the file.
    [[nodiscard]] common::Expected<bool> close() { return writer_.close(); }

private:
    wire::PcapWriter writer_;
};

}  // namespace arpsec::sim
