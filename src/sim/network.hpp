#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/node.hpp"
#include "telemetry/metrics.hpp"

namespace arpsec::sim {

/// Physical characteristics of a point-to-point Ethernet link.
struct LinkConfig {
    common::Duration latency = common::Duration::micros(5);  // propagation delay
    std::uint64_t bandwidth_bps = 100'000'000;               // 100 Mbit/s FastEthernet
    double loss_probability = 0.0;                           // iid frame loss
};

/// Observes every frame as it is put on a wire. Used for pcap capture and
/// for network-wide statistics; *schemes* never use global taps (they see
/// traffic only through their own vantage point). The view shares the
/// transmit buffer — taps read, never copy (view.bytes() is the raw wire
/// stream) — and any header parse a tap performs is memoized for the
/// eventual receiver.
class CaptureTap {
public:
    virtual ~CaptureTap() = default;
    virtual void on_capture(common::SimTime at, Endpoint from, Endpoint to,
                            const wire::FrameView& view) = 0;
};

/// Counts of traffic placed on the wire, by EtherType.
struct TrafficCounters {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    /// Frames serialized at origin. Forwarded frames (switch flood/mirror,
    /// replay injection) share the origin buffer and do not re-serialize,
    /// so in a flood-heavy run this equals frames *originated*, not frames
    /// placed on wires.
    std::uint64_t serializations = 0;
    std::uint64_t arp_frames = 0;
    std::uint64_t arp_bytes = 0;
    std::uint64_t ipv4_frames = 0;
    std::uint64_t ipv4_bytes = 0;
    std::uint64_t dropped_frames = 0;    // link loss
    std::uint64_t delivered_frames = 0;  // handed to the destination node
    std::uint64_t in_flight_frames = 0;  // scheduled but not yet delivered

    /// Conservation law every run must satisfy at every instant: each frame
    /// put on a wire is delivered, lost, or still propagating. The DST
    /// checker asserts this after every injected event.
    [[nodiscard]] bool conserved() const {
        return frames == delivered_frames + dropped_frames + in_flight_frames;
    }
};

/// The simulated LAN: owns nodes, links, the event scheduler and the
/// per-run RNG. This is the substitution for the paper's physical testbed.
class Network {
public:
    explicit Network(std::uint64_t seed);

    // Non-copyable, non-movable: nodes hold back-pointers.
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    [[nodiscard]] EventScheduler& scheduler() { return scheduler_; }
    [[nodiscard]] common::SimTime now() const { return scheduler_.now(); }
    [[nodiscard]] std::uint64_t seed() const { return seed_; }

    /// Adds a node; the network takes ownership and assigns the id.
    NodeId add_node(std::unique_ptr<Node> node);

    /// Constructs a node in place and returns a reference to it.
    template <class T, class... Args>
    T& emplace_node(Args&&... args) {
        auto owned = std::make_unique<T>(std::forward<Args>(args)...);
        T& ref = *owned;
        add_node(std::move(owned));
        return ref;
    }

    [[nodiscard]] Node& node(NodeId id);
    [[nodiscard]] const Node& node(NodeId id) const;
    [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

    /// Connects two node ports with a full-duplex link.
    void connect(Endpoint a, Endpoint b, LinkConfig config = {});

    /// Originates `frame` out of (from.node, from.port): serializes it into
    /// a refcounted FrameBuffer exactly once, then transmits the shared
    /// view. Models serialization delay, FIFO queueing per link direction,
    /// propagation delay and loss.
    void transmit(Endpoint from, const wire::EthernetFrame& frame);

    /// Forwards an already-serialized frame: the same FrameBuffer flows to
    /// taps, the loss model, and the delivery closure — no copy, no
    /// re-serialization, and the receiver reuses any memoized parse.
    void transmit(Endpoint from, const wire::FrameView& view);

    /// Fork a deterministic RNG stream for an entity.
    [[nodiscard]] common::Rng fork_rng(std::uint64_t stream_id) const {
        return rng_root_.fork(stream_id);
    }

    void add_tap(CaptureTap* tap) { taps_.push_back(tap); }

    /// Schedules start() for every node at the current time and returns.
    void start_all();

    [[nodiscard]] const TrafficCounters& counters() const { return counters_; }

    /// Mirrors wire activity into `registry` from now on (`sim.net.*`
    /// counters) and attaches the scheduler's metrics too. Counter handles
    /// are resolved once; transmit() then pays plain increments.
    void attach_metrics(telemetry::MetricsRegistry& registry);

private:
    struct Wire {
        Endpoint peer;  // peer.node == kInvalidNode: nothing plugged in
        LinkConfig config;
        common::SimTime next_free;  // when the transmitter may start the next frame
    };

    /// The wire plugged into `e`, or null: two index lookups, no search.
    [[nodiscard]] Wire* wire_at(Endpoint e);
    void plug(Endpoint e, const Wire& wire);

    std::uint64_t seed_;
    EventScheduler scheduler_;
    common::Rng rng_root_;
    common::Rng loss_rng_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::vector<Wire>> wires_;  // by node, then by port
    std::vector<CaptureTap*> taps_;
    TrafficCounters counters_;
    bool started_ = false;

    struct WireMetrics {
        telemetry::Counter* frames = nullptr;
        telemetry::Counter* bytes = nullptr;
        telemetry::Counter* serializations = nullptr;
        telemetry::Counter* arp_frames = nullptr;
        telemetry::Counter* arp_bytes = nullptr;
        telemetry::Counter* ipv4_frames = nullptr;
        telemetry::Counter* ipv4_bytes = nullptr;
        telemetry::Counter* dropped_frames = nullptr;
    };
    WireMetrics metrics_;
};

}  // namespace arpsec::sim
