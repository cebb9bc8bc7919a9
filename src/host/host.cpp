#include "host/host.hpp"

#include <cassert>

#include "common/log.hpp"

namespace arpsec::host {

using common::Duration;
using wire::ArpOp;
using wire::ArpPacket;
using wire::DhcpMessage;
using wire::DhcpMessageType;
using wire::EthernetFrame;
using wire::EtherType;
using wire::Ipv4Address;
using wire::Ipv4Packet;
using wire::MacAddress;
using wire::UdpDatagram;

Host::Host(HostConfig config)
    : sim::Node(config.name), config_(std::move(config)), cache_(config_.arp_policy) {}

Host::~Host() = default;

void Host::start() {
    if (config_.static_ip) {
        acquire_ip(*config_.static_ip);
    } else {
        dhcp_state_ = DhcpState::kInit;
        dhcp_start();
    }
}

void Host::acquire_ip(Ipv4Address ip) {
    ip_ = ip;
    // Listeners run before the gratuitous announce so enrollment hooks
    // (S-ARP AKD registration, TARP ticket reissue) cover the announcement.
    const auto listeners = ip_listeners_;  // guard against registration during dispatch
    for (const auto& fn : listeners) fn(ip);
    if (config_.gratuitous_announce) {
        send_arp(ArpPacket::gratuitous(mac(), ip, /*as_reply=*/false), MacAddress::broadcast());
    }
}

// --------------------------------------------------------------------------
// Frame dispatch
// --------------------------------------------------------------------------

void Host::on_frame(sim::PortId in_port, const wire::FrameView& view) {
    if (!powered_) return;
    // Non-promiscuous NIC: accept only frames addressed to us or broadcast.
    const MacAddress dst = view.dst();
    if (dst != mac() && !dst.is_broadcast()) return;
    if (view.src() == mac()) return;  // our own transmissions reflected back

    switch (view.ether_type()) {
        case EtherType::kArp:
            handle_arp(view, in_port);
            break;
        case EtherType::kIpv4:
            handle_ipv4(view);
            break;
    }
}

// --------------------------------------------------------------------------
// ARP engine
// --------------------------------------------------------------------------

void Host::handle_arp(const wire::FrameView& view, sim::PortId port) {
    // Memoized in the shared buffer — the switch's DAI or the monitor may
    // already have paid this parse.
    const ArpPacket* parsed = view.arp();
    if (parsed == nullptr) return;
    const ArpPacket& pkt = *parsed;
    ++stats_.arp_received;

    ArpRxInfo info;
    info.frame_src = view.src();
    info.port = port;
    info.gratuitous = pkt.is_gratuitous();
    info.solicited =
        pkt.op == ArpOp::kReply && !info.gratuitous && pending_.count(pkt.sender_ip) != 0;

    process_arp_pipeline(pkt, info, /*first_hook=*/0);
}

void Host::process_arp_pipeline(const ArpPacket& pkt, const ArpRxInfo& info,
                                std::size_t first_hook) {
    for (std::size_t i = first_hook; i < hooks_.size(); ++i) {
        switch (hooks_[i]->on_arp_receive(*this, pkt, info)) {
            case ArpHook::Verdict::kAccept:
                continue;
            case ArpHook::Verdict::kDrop:
                ++stats_.arp_dropped_by_hook;
                return;
            case ArpHook::Verdict::kDefer:
                return;  // hook will call resume_arp_processing()
        }
    }
    finish_arp_processing(pkt, info);
}

void Host::resume_arp_processing(const ArpPacket& pkt, const ArpRxInfo& info,
                                 const ArpHook* after_hook) {
    std::size_t next = hooks_.size();
    for (std::size_t i = 0; i < hooks_.size(); ++i) {
        if (hooks_[i].get() == after_hook) {
            next = i + 1;
            break;
        }
    }
    process_arp_pipeline(pkt, info, next);
}

void Host::finish_arp_processing(const ArpPacket& pkt, const ArpRxInfo& info) {
    // Classify for the cache policy.
    arp::UpdateSource source;
    if (info.gratuitous) {
        source = pkt.op == ArpOp::kReply ? arp::UpdateSource::kGratuitousReply
                                         : arp::UpdateSource::kGratuitousRequest;
    } else if (pkt.op == ArpOp::kReply) {
        source = info.solicited ? arp::UpdateSource::kSolicitedReply
                                : arp::UpdateSource::kUnsolicitedReply;
    } else {
        source = arp::UpdateSource::kRequest;
    }

    if (!pkt.sender_ip.is_any() && !pkt.sender_mac.is_zero()) {
        const auto outcome = cache_.offer(pkt.sender_ip, pkt.sender_mac, source, network().now());
        if (outcome.accepted && pending_.count(pkt.sender_ip) != 0) {
            resolution_succeeded(pkt.sender_ip, pkt.sender_mac);
        }
    }

    // Answer requests for our address.
    if (pkt.op == ArpOp::kRequest && has_ip() && pkt.target_ip == ip() && !info.gratuitous) {
        ++stats_.arp_replies_sent;
        send_arp(ArpPacket::reply(mac(), ip(), pkt.sender_mac, pkt.sender_ip), pkt.sender_mac);
    }
}

void Host::apply_verified_binding(Ipv4Address ip, MacAddress mac_addr) {
    cache_.force(ip, mac_addr, network().now());
    if (pending_.count(ip) != 0) resolution_succeeded(ip, mac_addr);
}

void Host::send_arp(ArpPacket pkt, MacAddress frame_dst) {
    Duration extra = config_.processing_delay;
    for (auto& hook : hooks_) extra += hook->on_arp_transmit(*this, pkt);

    EthernetFrame frame;
    frame.dst = frame_dst;
    frame.src = mac();
    frame.ether_type = EtherType::kArp;
    frame.payload = pkt.serialize();
    after(extra, [this, frame = std::move(frame)] {
        if (powered_) send(0, frame);
    });
}

void Host::resolve(Ipv4Address target,
                   std::function<void(std::optional<MacAddress>)> done) {
    if (auto hit = cache_.lookup(target, network().now())) {
        ++stats_.resolutions_ok;
        done(hit);
        return;
    }
    auto [it, fresh] = pending_.try_emplace(target);
    it->second.callbacks.push_back(std::move(done));
    if (!fresh) return;  // request already in flight

    it->second.tries = 1;
    it->second.started = network().now();
    ++stats_.arp_requests_sent;
    send_arp(ArpPacket::request(mac(), ip(), target), MacAddress::broadcast());
    it->second.timeout_event =
        after(config_.arp_request_timeout, [this, target] { arp_request_timeout(target); });
}

void Host::arp_request_timeout(Ipv4Address target) {
    auto it = pending_.find(target);
    if (it == pending_.end()) return;
    if (it->second.tries >= config_.arp_max_tries) {
        auto callbacks = std::move(it->second.callbacks);
        pending_.erase(it);
        ++stats_.resolutions_failed;
        for (auto& cb : callbacks) cb(std::nullopt);
        return;
    }
    it->second.tries += 1;
    ++stats_.arp_requests_sent;
    send_arp(ArpPacket::request(mac(), ip(), target), MacAddress::broadcast());
    it->second.timeout_event =
        after(config_.arp_request_timeout, [this, target] { arp_request_timeout(target); });
}

void Host::resolution_succeeded(Ipv4Address target, MacAddress mac_addr) {
    auto it = pending_.find(target);
    if (it == pending_.end()) return;
    network().scheduler().cancel(it->second.timeout_event);
    const Duration took = network().now() - it->second.started;
    stats_.resolution_latency_us.add(took.to_micros());
    ++stats_.resolutions_ok;
    auto callbacks = std::move(it->second.callbacks);
    pending_.erase(it);
    for (auto& cb : callbacks) cb(mac_addr);
}

// --------------------------------------------------------------------------
// IPv4 / UDP
// --------------------------------------------------------------------------

Ipv4Address Host::next_hop_for(Ipv4Address dst) const {
    if (dst.is_broadcast() || config_.subnet.contains(dst)) return dst;
    return config_.gateway;
}

void Host::send_udp(Ipv4Address dst, std::uint16_t src_port, std::uint16_t dst_port,
                    wire::Bytes payload) {
    if (dst.is_broadcast() || dst == config_.subnet.broadcast_address()) {
        transmit_udp(dst, MacAddress::broadcast(), src_port, dst_port, payload);
        return;
    }
    const Ipv4Address hop = next_hop_for(dst);
    resolve(hop, [this, dst, src_port, dst_port, payload = std::move(payload)](
                     std::optional<MacAddress> mac_addr) {
        if (!mac_addr) {
            ++stats_.udp_send_failed;
            return;
        }
        transmit_udp(dst, *mac_addr, src_port, dst_port, payload);
    });
}

void Host::transmit_udp(Ipv4Address dst, MacAddress dst_mac, std::uint16_t src_port,
                        std::uint16_t dst_port, const wire::Bytes& payload) {
    UdpDatagram udp;
    udp.src_port = src_port;
    udp.dst_port = dst_port;
    udp.payload = payload;

    Ipv4Packet ip_pkt;
    ip_pkt.identification = next_ip_id_++;
    ip_pkt.protocol = wire::IpProto::kUdp;
    ip_pkt.src = ip_.value_or(Ipv4Address::any());
    ip_pkt.dst = dst;
    ip_pkt.payload = udp.serialize();

    EthernetFrame frame;
    frame.dst = dst_mac;
    frame.src = mac();
    frame.ether_type = EtherType::kIpv4;
    frame.payload = ip_pkt.serialize();

    ++stats_.udp_sent;
    after(config_.processing_delay, [this, frame = std::move(frame)] {
        if (powered_) send(0, frame);
    });
}

void Host::handle_ipv4(const wire::FrameView& view) {
    const Ipv4Packet* ip_pkt = view.ipv4();  // memoized in the shared buffer
    if (ip_pkt == nullptr) return;
    const bool for_us = has_ip() && ip_pkt->dst == ip();
    const bool broadcast = ip_pkt->dst.is_broadcast() ||
                           ip_pkt->dst == config_.subnet.broadcast_address();
    if (!for_us && !broadcast) return;
    if (ip_pkt->protocol != wire::IpProto::kUdp) {
        auto it = proto_handlers_.find(static_cast<std::uint8_t>(ip_pkt->protocol));
        if (it != proto_handlers_.end()) it->second(*this, *ip_pkt, view.src());
        return;
    }
    auto udp = UdpDatagram::parse(ip_pkt->payload);
    if (!udp.ok()) return;

    ++stats_.udp_received;
    auto it = udp_handlers_.find(udp->dst_port);
    if (it == udp_handlers_.end()) return;
    UdpRxInfo info;
    info.src_ip = ip_pkt->src;
    info.dst_ip = ip_pkt->dst;
    info.src_port = udp->src_port;
    info.dst_port = udp->dst_port;
    info.frame_src = view.src();
    it->second(*this, info, udp->payload);
}

void Host::bind_udp(std::uint16_t port, UdpHandler handler) {
    udp_handlers_[port] = std::move(handler);
}

void Host::bind_ipv4_proto(wire::IpProto proto, Ipv4ProtoHandler handler) {
    proto_handlers_[static_cast<std::uint8_t>(proto)] = std::move(handler);
}

void Host::send_ipv4(Ipv4Address dst, wire::IpProto proto, wire::Bytes payload) {
    const Ipv4Address hop = next_hop_for(dst);
    resolve(hop, [this, dst, proto, payload = std::move(payload)](
                     std::optional<MacAddress> mac_addr) mutable {
        if (!mac_addr) return;
        Ipv4Packet ip_pkt;
        ip_pkt.identification = next_ip_id_++;
        ip_pkt.protocol = proto;
        ip_pkt.src = ip_.value_or(Ipv4Address::any());
        ip_pkt.dst = dst;
        ip_pkt.payload = std::move(payload);

        EthernetFrame frame;
        frame.dst = *mac_addr;
        frame.src = mac();
        frame.ether_type = EtherType::kIpv4;
        frame.payload = ip_pkt.serialize();
        after(config_.processing_delay, [this, frame = std::move(frame)] {
            if (powered_) send(0, frame);
        });
    });
}

// --------------------------------------------------------------------------
// Timers
// --------------------------------------------------------------------------

sim::EventId Host::after(Duration d, std::function<void()> fn) {
    return network().scheduler().schedule_after(d, std::move(fn));
}

void Host::every(Duration period, std::function<void()> fn) {
    after(period, [this, period, fn = std::move(fn)]() mutable {
        fn();
        every(period, std::move(fn));
    });
}

// --------------------------------------------------------------------------
// DHCP client
// --------------------------------------------------------------------------

void Host::dhcp_start() {
    // The client listens on UDP 68.
    bind_udp(DhcpMessage::kClientPort, [this](Host&, const UdpRxInfo&, const wire::Bytes& data) {
        auto msg = DhcpMessage::parse(data);
        if (!msg.ok()) return;
        dhcp_handle_reply(msg.value());
    });
    auto rng = network().fork_rng(0x0DC0 + id());
    dhcp_xid_ = static_cast<std::uint32_t>(rng.next_u64());
    dhcp_send_discover();
}

void Host::send_dhcp(DhcpMessage msg) {
    send_udp(Ipv4Address::broadcast(), DhcpMessage::kClientPort, DhcpMessage::kServerPort,
             msg.serialize());
}

void Host::dhcp_send_discover() {
    dhcp_state_ = DhcpState::kSelecting;
    DhcpMessage msg;
    msg.op = 1;
    msg.xid = dhcp_xid_;
    msg.flags = DhcpMessage::kFlagBroadcast;
    msg.chaddr = mac();
    msg.message_type = DhcpMessageType::kDiscover;
    send_dhcp(msg);
    dhcp_retry_event_ = after(Duration::seconds(3), [this] {
        if (dhcp_state_ == DhcpState::kSelecting || dhcp_state_ == DhcpState::kRequesting) {
            dhcp_send_discover();
        }
    });
}

void Host::dhcp_send_request(const DhcpMessage& offer) {
    dhcp_state_ = DhcpState::kRequesting;
    DhcpMessage msg;
    msg.op = 1;
    msg.xid = dhcp_xid_;
    msg.flags = DhcpMessage::kFlagBroadcast;
    msg.chaddr = mac();
    msg.message_type = DhcpMessageType::kRequest;
    msg.requested_ip = offer.yiaddr;
    msg.server_id = offer.server_id;
    send_dhcp(msg);
}

void Host::dhcp_handle_reply(const DhcpMessage& msg) {
    if (!msg.is_reply() || msg.xid != dhcp_xid_ || msg.chaddr != mac()) return;
    switch (msg.message_type) {
        case DhcpMessageType::kOffer:
            if (dhcp_state_ == DhcpState::kSelecting) dhcp_send_request(msg);
            break;
        case DhcpMessageType::kAck:
            if (dhcp_state_ == DhcpState::kRequesting || dhcp_state_ == DhcpState::kBound) {
                network().scheduler().cancel(dhcp_retry_event_);
                dhcp_state_ = DhcpState::kBound;
                dhcp_server_ = msg.server_id.value_or(Ipv4Address::any());
                dhcp_lease_seconds_ = msg.lease_seconds.value_or(3600);
                const bool fresh = !has_ip() || ip() != msg.yiaddr;
                if (fresh) acquire_ip(msg.yiaddr);
                dhcp_schedule_renewal();
            }
            break;
        case DhcpMessageType::kNak:
            dhcp_state_ = DhcpState::kInit;
            ip_.reset();
            dhcp_send_discover();
            break;
        // Server-bound message types: the client ignores them.
        case DhcpMessageType::kDiscover:
        case DhcpMessageType::kRequest:
        case DhcpMessageType::kDecline:
        case DhcpMessageType::kRelease:
            break;
    }
}

void Host::dhcp_schedule_renewal() {
    // Renew at T/2 with a unicast-style REQUEST (sent broadcast on this
    // simulated LAN; the server matches by xid/chaddr).
    const auto renew_in = Duration::seconds(std::max<std::int64_t>(1, dhcp_lease_seconds_ / 2));
    after(renew_in, [this] {
        if (dhcp_state_ != DhcpState::kBound) return;
        DhcpMessage msg;
        msg.op = 1;
        msg.xid = dhcp_xid_;
        msg.flags = DhcpMessage::kFlagBroadcast;
        msg.chaddr = mac();
        msg.ciaddr = ip();
        msg.message_type = DhcpMessageType::kRequest;
        msg.requested_ip = ip();
        msg.server_id = dhcp_server_;
        send_dhcp(msg);
        dhcp_state_ = DhcpState::kRequesting;
        dhcp_retry_event_ = after(Duration::seconds(3), [this] {
            if (dhcp_state_ == DhcpState::kRequesting) dhcp_send_discover();
        });
    });
}

void Host::dhcp_release() {
    if (dhcp_state_ == DhcpState::kBound && has_ip()) {
        DhcpMessage msg;
        msg.op = 1;
        msg.xid = dhcp_xid_;
        msg.chaddr = mac();
        msg.ciaddr = ip();
        msg.message_type = DhcpMessageType::kRelease;
        msg.server_id = dhcp_server_;
        send_dhcp(msg);
    }
    dhcp_state_ = DhcpState::kDisabled;
    ip_.reset();
}

void Host::power_off() {
    powered_ = false;
    ip_.reset();
    dhcp_state_ = DhcpState::kDisabled;
    pending_.clear();
}

void Host::power_on() {
    if (powered_) return;
    powered_ = true;
    start();
}

}  // namespace arpsec::host
