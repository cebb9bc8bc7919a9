#pragma once

#include <memory>
#include <vector>

#include "sim/network.hpp"
#include "sim/node.hpp"
#include "wire/arp_packet.hpp"

namespace arpsec::detect {

class MonitorNode;

/// Receives every frame the monitor's promiscuous NIC sees (via the
/// switch's SPAN/mirror port — the libpcap vantage point of arpwatch,
/// Snort, and XArp-style tools).
class TrafficObserver {
public:
    virtual ~TrafficObserver() = default;
    /// `arp` is non-null when the frame carries a parsable ARP packet (the
    /// parse is memoized in the shared FrameBuffer, so it happened at most
    /// once no matter how many schemes observe the frame).
    virtual void on_observed(MonitorNode& monitor, common::SimTime at,
                             const wire::FrameView& view, const wire::ArpPacket* arp) = 0;
};

/// Dedicated passive-monitoring station plugged into the switch mirror
/// port. Active-verification schemes may also transmit probes through it.
class MonitorNode final : public sim::Node {
public:
    MonitorNode(std::string name, wire::MacAddress mac)
        : sim::Node(std::move(name)), mac_(mac) {}

    void on_frame(sim::PortId in_port, const wire::FrameView& view) override {
        (void)in_port;
        if (view.src() == mac_) return;  // our own probes mirrored back
        if (observers_.empty()) return;
        // Memoized in the shared buffer: the first observer of this frame
        // anywhere in the process paid the only ARP parse.
        const wire::ArpPacket* arp = view.arp();
        const common::SimTime at = network().now();
        // Index loop (size re-read each pass) so observers added during
        // iteration are picked up without copying the vector per frame.
        for (std::size_t i = 0; i < observers_.size(); ++i) {
            observers_[i]->on_observed(*this, at, view, arp);
        }
    }

    void add_observer(std::shared_ptr<TrafficObserver> obs) {
        observers_.push_back(std::move(obs));
    }

    /// Transmits a frame (active probing). Sets the frame source to the
    /// monitor's own MAC.
    void transmit(wire::EthernetFrame frame) {
        frame.src = mac_;
        send(0, frame);
    }

    [[nodiscard]] wire::MacAddress mac() const { return mac_; }

private:
    wire::MacAddress mac_;
    std::vector<std::shared_ptr<TrafficObserver>> observers_;
};

}  // namespace arpsec::detect
