#include "l2/switch.hpp"

#include "common/log.hpp"
#include "wire/ipv4_packet.hpp"
#include "wire/udp_datagram.hpp"

namespace arpsec::l2 {

std::string to_string(SwitchEventKind k) {
    switch (k) {
        case SwitchEventKind::kPortSecurityViolation: return "port-security-violation";
        case SwitchEventKind::kPortShutdown: return "port-shutdown";
        case SwitchEventKind::kDaiDrop: return "dai-drop";
        case SwitchEventKind::kDaiRateLimited: return "dai-rate-limited";
        case SwitchEventKind::kDhcpSnoopDrop: return "dhcp-snoop-drop";
        case SwitchEventKind::kBindingAdded: return "binding-added";
        case SwitchEventKind::kCamFull: return "cam-full";
    }
    return "?";
}

Switch::Switch(std::string name, std::size_t port_count, CamConfig cam)
    : sim::Node(std::move(name)), port_count_(port_count), cam_(cam) {}

void Switch::start() { schedule_cam_sweep(); }

void Switch::schedule_cam_sweep() {
    // Periodic CAM aging sweep so stale stations disappear even on an
    // otherwise idle fabric.
    network().scheduler().schedule_after(common::Duration::seconds(10), [this] {
        cam_.purge_aged(network().now());
        schedule_cam_sweep();
    });
}

void Switch::emit(SwitchEventKind kind, sim::PortId port, wire::MacAddress mac,
                  wire::Ipv4Address ip, std::string detail) {
    SwitchEvent ev{network().now(), kind, port, mac, ip, std::move(detail)};
    events_.push_back(ev);
    if (listener_) listener_(ev);
    common::Log::write(common::LogLevel::kDebug, network().now(), name(),
                       to_string(kind) + " port=" + std::to_string(port) + " " + ev.detail);
}

void Switch::shutdown_port(sim::PortId port, const std::string& why) {
    if (shut_ports_.insert(port).second) {
        cam_.flush_port(port);
        emit(SwitchEventKind::kPortShutdown, port, {}, {}, why);
    }
}

void Switch::reenable_port(sim::PortId port) {
    shut_ports_.erase(port);
    port_macs_[port].clear();
}

void Switch::enable_dhcp_snooping(std::set<sim::PortId> trusted_ports) {
    snooping_enabled_ = true;
    for (sim::PortId p : trusted_ports) trusted_ports_.insert(p);
}

void Switch::set_trusted_port(sim::PortId port, bool trusted) {
    if (trusted) {
        trusted_ports_.insert(port);
    } else {
        trusted_ports_.erase(port);
    }
}

void Switch::add_static_binding(wire::Ipv4Address ip, wire::MacAddress mac, sim::PortId port) {
    bindings_[ip] = SnoopBinding{mac, port, common::SimTime::max()};
    emit(SwitchEventKind::kBindingAdded, port, mac, ip, "static binding");
}

void Switch::on_frame(sim::PortId in_port, const wire::FrameView& view) {
    ++stats_.received;

    if (shut_ports_.count(in_port) != 0) {
        ++stats_.dropped;
        return;  // err-disabled port: ingress is discarded
    }

    if (apply_port_security(in_port, view)) {
        ++stats_.dropped;
        return;
    }
    if (snooping_enabled_ && apply_dhcp_snooping(in_port, view)) {
        ++stats_.dropped;
        return;
    }
    if (dai_.enabled && apply_arp_inspection(in_port, view)) {
        ++stats_.dropped;
        return;
    }

    // Source learning.
    const wire::MacAddress src = view.src();
    if (src.is_unicast() && !src.is_zero()) {
        const LearnResult r = cam_.learn(src, in_port, network().now());
        if (r == LearnResult::kTableFull) {
            emit(SwitchEventKind::kCamFull, in_port, src, {}, "CAM table full");
        }
    }

    // SPAN mirror: the monitor sees the exact ingress buffer — forwarding
    // the view shares the origin's bytes, no re-serialization.
    if (mirror_port_ && *mirror_port_ != in_port) {
        ++stats_.mirrored;
        send(*mirror_port_, view);
    }

    forward(in_port, view);
}

void Switch::set_port_vlan(sim::PortId port, std::uint16_t vlan) { port_vlans_[port] = vlan; }

std::uint16_t Switch::port_vlan(sim::PortId port) const {
    auto it = port_vlans_.find(port);
    return it == port_vlans_.end() ? 1 : it->second;
}

void Switch::forward(sim::PortId in_port, const wire::FrameView& view) {
    const std::uint16_t vlan = port_vlan(in_port);
    // Every egress port shares the same FrameBuffer: an N-port flood costs
    // N refcount bumps, not N serializations.
    const auto flood = [&] {
        ++stats_.flooded;
        for (sim::PortId p = 0; p < port_count_; ++p) {
            if (p == in_port) continue;
            if (shut_ports_.count(p) != 0) continue;
            if (mirror_port_ && p == *mirror_port_) continue;  // mirror already fed
            if (port_vlan(p) != vlan) continue;                // VLAN confinement
            send(p, view);
        }
    };

    const wire::MacAddress dst = view.dst();
    if (!dst.is_unicast() || dst.is_broadcast()) {
        flood();
        return;
    }
    const auto port = cam_.lookup(dst, network().now());
    if (!port || port_vlan(*port) != vlan) {
        flood();  // unknown unicast (or cross-VLAN station) floods in-VLAN
        return;
    }
    if (*port == in_port) {
        ++stats_.dropped;  // destination is on the ingress segment
        return;
    }
    if (shut_ports_.count(*port) != 0) {
        ++stats_.dropped;
        return;
    }
    ++stats_.unicast_forwarded;
    send(*port, view);
}

bool Switch::apply_port_security(sim::PortId in_port, const wire::FrameView& view) {
    if (!port_security_.enabled || trusted(in_port)) return false;
    const wire::MacAddress src = view.src();
    if (src.is_zero() || !src.is_unicast()) return false;
    auto& macs = port_macs_[in_port];
    if (macs.count(src.to_u64()) != 0) return false;
    if (macs.size() >= port_security_.max_macs_per_port) {
        emit(SwitchEventKind::kPortSecurityViolation, in_port, src, {},
             "source MAC limit exceeded");
        if (port_security_.shutdown_on_violation) {
            shutdown_port(in_port, "port-security violation");
        }
        return true;
    }
    if (port_security_.sticky) {
        if (auto it = sticky_owner_.find(src.to_u64());
            it != sticky_owner_.end() && it->second != in_port) {
            emit(SwitchEventKind::kPortSecurityViolation, in_port, src, {},
                 "sticky MAC moved from port " + std::to_string(it->second));
            if (port_security_.shutdown_on_violation) {
                shutdown_port(in_port, "sticky MAC violation");
            }
            return true;
        }
        sticky_owner_[src.to_u64()] = in_port;
    }
    macs.insert(src.to_u64());
    return false;
}

bool Switch::apply_dhcp_snooping(sim::PortId in_port, const wire::FrameView& view) {
    const wire::Ipv4Packet* ip = view.ipv4();  // memoized in the shared buffer
    if (ip == nullptr || ip->protocol != wire::IpProto::kUdp) return false;
    auto udp = wire::UdpDatagram::view(ip->payload);
    if (!udp.ok()) return false;
    const bool to_server = udp->dst_port == wire::DhcpMessage::kServerPort;
    const bool to_client = udp->dst_port == wire::DhcpMessage::kClientPort;
    if (!to_server && !to_client) return false;
    auto dhcp = wire::DhcpMessage::parse(udp->payload);
    if (!dhcp.ok()) return false;

    if (dhcp->is_reply() && !trusted(in_port)) {
        // Server message arriving on an untrusted port: rogue DHCP server.
        emit(SwitchEventKind::kDhcpSnoopDrop, in_port, view.src(), dhcp->yiaddr,
             "DHCP server message on untrusted port");
        return true;
    }
    if (dhcp->is_request()) {
        last_dhcp_client_port_[dhcp->chaddr.to_u64()] = in_port;
    } else if (dhcp->message_type == wire::DhcpMessageType::kAck && !dhcp->yiaddr.is_any()) {
        sim::PortId client_port = 0;
        if (auto it = last_dhcp_client_port_.find(dhcp->chaddr.to_u64());
            it != last_dhcp_client_port_.end()) {
            client_port = it->second;
        }
        const auto lease = dhcp->lease_seconds.value_or(3600);
        bindings_[dhcp->yiaddr] = SnoopBinding{
            dhcp->chaddr, client_port,
            network().now() + common::Duration::seconds(static_cast<std::int64_t>(lease))};
        emit(SwitchEventKind::kBindingAdded, client_port, dhcp->chaddr, dhcp->yiaddr,
             "snooped DHCP lease");
    }
    return false;
}

bool Switch::apply_arp_inspection(sim::PortId in_port, const wire::FrameView& view) {
    if (view.ether_type() != wire::EtherType::kArp) return false;
    if (trusted(in_port)) return false;

    const wire::MacAddress src = view.src();

    // Rate limiting (token bucket, Cisco-style policing of untrusted ARP).
    auto& bucket = arp_buckets_[in_port];
    const auto now = network().now();
    if (!bucket.initialized) {
        bucket.initialized = true;
        bucket.tokens = dai_.rate_limit_pps;  // buckets start full
        bucket.last = now;
    }
    const double refill = (now - bucket.last).to_seconds() * dai_.rate_limit_pps;
    bucket.tokens = std::min(static_cast<double>(dai_.rate_limit_pps), bucket.tokens + refill);
    bucket.last = now;
    if (bucket.tokens < 1.0) {
        emit(SwitchEventKind::kDaiRateLimited, in_port, src, {}, "ARP rate exceeded");
        if (dai_.err_disable_on_rate) shutdown_port(in_port, "DAI rate limit");
        return true;
    }
    bucket.tokens -= 1.0;

    // Memoized in the shared buffer: whoever parsed this frame's ARP first
    // (tap, monitor, or us) paid the only parse.
    const wire::ArpPacket* arp = view.arp();
    if (arp == nullptr) {
        emit(SwitchEventKind::kDaiDrop, in_port, src, {}, "malformed ARP");
        return true;
    }
    if (dai_.validate_src_mac && arp->sender_mac != src) {
        emit(SwitchEventKind::kDaiDrop, in_port, src, arp->sender_ip,
             "ARP sender MAC does not match frame source");
        return true;
    }
    // Probe packets with a zero sender IP (e.g. DHCP-style duplicate
    // detection) carry no binding claim and pass.
    if (arp->sender_ip.is_any()) return false;

    auto it = bindings_.find(arp->sender_ip);
    if (it == bindings_.end()) {
        emit(SwitchEventKind::kDaiDrop, in_port, src, arp->sender_ip,
             "no snooping binding for sender IP");
        return true;
    }
    const SnoopBinding& b = it->second;
    if (b.expires < now) {
        emit(SwitchEventKind::kDaiDrop, in_port, src, arp->sender_ip,
             "binding expired");
        return true;
    }
    if (b.mac != arp->sender_mac || (b.port != kAnyPort && b.port != in_port)) {
        emit(SwitchEventKind::kDaiDrop, in_port, src, arp->sender_ip,
             "sender binding mismatch (claimed " + arp->sender_mac.to_string() + ")");
        return true;
    }
    return false;
}

void Switch::export_metrics(telemetry::MetricsRegistry& registry) const {
    registry.counter("l2.switch.frames_received").inc(stats_.received);
    registry.counter("l2.switch.unicast_forwarded").inc(stats_.unicast_forwarded);
    registry.counter("l2.switch.flooded").inc(stats_.flooded);
    registry.counter("l2.switch.dropped").inc(stats_.dropped);
    registry.counter("l2.switch.mirrored").inc(stats_.mirrored);
    registry.counter("l2.switch.events").inc(events_.size());
    registry.gauge("l2.switch.shut_ports").set(static_cast<std::int64_t>(shut_ports_.size()));

    const CamStats& cam = cam_.stats();
    registry.counter("l2.cam.inserts").inc(cam.learned);
    registry.counter("l2.cam.refreshes").inc(cam.refreshed);
    registry.counter("l2.cam.moves").inc(cam.moves);
    registry.counter("l2.cam.full_drops").inc(cam.full_drops);
    registry.counter("l2.cam.evictions").inc(cam.aged_out);
    registry.gauge("l2.cam.size").set(static_cast<std::int64_t>(cam_.size()));
}

}  // namespace arpsec::l2
