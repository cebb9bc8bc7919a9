#include "sim/network.hpp"

#include <cassert>
#include <stdexcept>

#include "common/log.hpp"

namespace arpsec::sim {

Network::Network(std::uint64_t seed)
    : seed_(seed), rng_root_(seed), loss_rng_(rng_root_.fork(0x1055)) {}

NodeId Network::add_node(std::unique_ptr<Node> node) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    node->id_ = id;
    node->network_ = this;
    nodes_.push_back(std::move(node));
    if (started_) {
        // Late joiners (e.g. hosts arriving mid-scenario) start immediately.
        Node* raw = nodes_.back().get();
        scheduler_.schedule_after(common::Duration::zero(), [raw] { raw->start(); });
    }
    return id;
}

Node& Network::node(NodeId id) {
    if (id >= nodes_.size()) throw std::out_of_range("Network::node: bad id");
    return *nodes_[id];
}

const Node& Network::node(NodeId id) const {
    if (id >= nodes_.size()) throw std::out_of_range("Network::node: bad id");
    return *nodes_[id];
}

void Network::connect(Endpoint a, Endpoint b, LinkConfig config) {
    if (a.node >= nodes_.size() || b.node >= nodes_.size()) {
        throw std::out_of_range("Network::connect: unknown node");
    }
    if (wire_at(a) != nullptr || wire_at(b) != nullptr) {
        throw std::logic_error("Network::connect: port already wired");
    }
    plug(a, Wire{b, config, common::SimTime::zero()});
    plug(b, Wire{a, config, common::SimTime::zero()});
}

void Network::plug(Endpoint e, const Wire& wire) {
    if (wires_.size() <= e.node) wires_.resize(std::size_t{e.node} + 1);
    std::vector<Wire>& ports = wires_[e.node];
    if (ports.size() <= e.port) ports.resize(std::size_t{e.port} + 1);
    ports[e.port] = wire;
}

Network::Wire* Network::wire_at(Endpoint e) {
    if (e.node >= wires_.size()) return nullptr;
    std::vector<Wire>& ports = wires_[e.node];
    if (e.port >= ports.size() || ports[e.port].peer.node == kInvalidNode) return nullptr;
    return &ports[e.port];
}

void Network::transmit(Endpoint from, const wire::EthernetFrame& frame) {
    if (wire_at(from) == nullptr) return;  // unplugged: don't serialize into the void
    counters_.serializations += 1;
    if (metrics_.serializations != nullptr) metrics_.serializations->inc();
    transmit(from, wire::FrameView{wire::FrameBuffer::serialize(frame)});
}

void Network::transmit(Endpoint from, const wire::FrameView& view) {
    Wire* w = wire_at(from);
    if (w == nullptr) return;  // unplugged port: frame vanishes, like real hardware

    const std::size_t raw_size = view.bytes().size();

    counters_.frames += 1;
    counters_.bytes += raw_size;
    if (metrics_.frames != nullptr) {
        metrics_.frames->inc();
        metrics_.bytes->inc(raw_size);
    }
    if (view.ok() && view.ether_type() == wire::EtherType::kArp) {
        counters_.arp_frames += 1;
        counters_.arp_bytes += raw_size;
        if (metrics_.arp_frames != nullptr) {
            metrics_.arp_frames->inc();
            metrics_.arp_bytes->inc(raw_size);
        }
    } else {
        counters_.ipv4_frames += 1;
        counters_.ipv4_bytes += raw_size;
        if (metrics_.ipv4_frames != nullptr) {
            metrics_.ipv4_frames->inc();
            metrics_.ipv4_bytes->inc(raw_size);
        }
    }

    // FIFO per link direction: serialization starts when the previous frame
    // has left the NIC.
    const common::SimTime start_tx = std::max(scheduler_.now(), w->next_free);
    const auto tx_ns = static_cast<std::int64_t>(raw_size * 8ULL * 1'000'000'000ULL /
                                                 w->config.bandwidth_bps);
    const common::Duration tx_delay{tx_ns};
    w->next_free = start_tx + tx_delay;
    const common::SimTime arrival = start_tx + tx_delay + w->config.latency;

    for (CaptureTap* tap : taps_) tap->on_capture(scheduler_.now(), from, w->peer, view);

    if (w->config.loss_probability > 0.0 && loss_rng_.chance(w->config.loss_probability)) {
        counters_.dropped_frames += 1;
        if (metrics_.dropped_frames != nullptr) metrics_.dropped_frames->inc();
        return;
    }

    const Endpoint to = w->peer;
    counters_.in_flight_frames += 1;
    // The closure captures the refcounted view — one shared_ptr bump, never
    // a byte copy — and the receiver reuses whatever the taps memoized.
    scheduler_.schedule_at(arrival, [this, to, view] {
        counters_.in_flight_frames -= 1;
        counters_.delivered_frames += 1;
        Node& receiver = node(to.node);
        if (view.ok()) {
            receiver.on_frame(to.port, view);
        } else {
            receiver.on_bad_frame(to.port, view.bytes());
        }
    });
}

void Network::attach_metrics(telemetry::MetricsRegistry& registry) {
    metrics_.frames = &registry.counter("sim.net.frames");
    metrics_.bytes = &registry.counter("sim.net.bytes");
    metrics_.serializations = &registry.counter("sim.net.serializations");
    metrics_.arp_frames = &registry.counter("sim.net.arp_frames");
    metrics_.arp_bytes = &registry.counter("sim.net.arp_bytes");
    metrics_.ipv4_frames = &registry.counter("sim.net.ipv4_frames");
    metrics_.ipv4_bytes = &registry.counter("sim.net.ipv4_bytes");
    metrics_.dropped_frames = &registry.counter("sim.net.dropped_frames");
    scheduler_.attach_metrics(registry);
}

void Network::start_all() {
    started_ = true;
    for (auto& n : nodes_) {
        Node* raw = n.get();
        scheduler_.schedule_after(common::Duration::zero(), [raw] { raw->start(); });
    }
}

void Node::send(PortId out_port, const wire::EthernetFrame& frame) {
    network().transmit(Endpoint{id(), out_port}, frame);
}

void Node::send(PortId out_port, const wire::FrameView& view) {
    network().transmit(Endpoint{id(), out_port}, view);
}

}  // namespace arpsec::sim
