#include "host/dhcp_server.hpp"

namespace arpsec::host {

using wire::DhcpMessage;
using wire::DhcpMessageType;
using wire::Ipv4Address;
using wire::MacAddress;

DhcpServer::DhcpServer(Host& host, Config config) : host_(host), config_(config) {
    host_.bind_udp(DhcpMessage::kServerPort,
                   [this](Host&, const UdpRxInfo&, const wire::Bytes& data) {
                       auto msg = DhcpMessage::parse(data);
                       if (msg.ok() && msg->is_request()) handle(msg.value());
                   });
}

std::size_t DhcpServer::free_addresses() const {
    const auto now = host_.network().now();
    std::size_t used = 0;
    for (const auto& [ip, lease] : leases_) {
        if (lease.expires > now) ++used;
    }
    return config_.pool_size - std::min<std::size_t>(used, config_.pool_size);
}

std::optional<Ipv4Address> DhcpServer::allocate(MacAddress mac) {
    const auto now = host_.network().now();
    // Sticky allocation: a returning client gets its previous address.
    for (const auto& [ip, lease] : leases_) {
        if (lease.mac == mac && lease.expires > now) return ip;
    }
    Ipv4Address candidate = config_.pool_start;
    for (std::uint32_t i = 0; i < config_.pool_size; ++i, candidate = candidate.next()) {
        auto it = leases_.find(candidate);
        if (it == leases_.end() || it->second.expires <= now) return candidate;
    }
    ++stats_.pool_exhausted;
    return std::nullopt;
}

void DhcpServer::reply(const DhcpMessage& to, DhcpMessageType type, Ipv4Address yiaddr) {
    DhcpMessage msg;
    msg.op = 2;
    msg.xid = to.xid;
    msg.flags = DhcpMessage::kFlagBroadcast;
    msg.chaddr = to.chaddr;
    msg.yiaddr = yiaddr;
    msg.message_type = type;
    msg.server_id = host_.ip();
    msg.lease_seconds = config_.lease_seconds;
    msg.subnet_mask = config_.subnet_mask;
    msg.router = config_.router;
    host_.send_udp(Ipv4Address::broadcast(), DhcpMessage::kServerPort, DhcpMessage::kClientPort,
                   msg.serialize());
}

void DhcpServer::handle(const DhcpMessage& msg) {
    const auto now = host_.network().now();
    switch (msg.message_type) {
        case DhcpMessageType::kDiscover: {
            ++stats_.discovers;
            const auto ip = allocate(msg.chaddr);
            if (!ip) return;  // pool exhausted: stay silent, client retries
            // Reserve briefly so concurrent discovers don't collide.
            leases_[*ip] = Lease{msg.chaddr, now + common::Duration::seconds(10)};
            ++stats_.offers;
            reply(msg, DhcpMessageType::kOffer, *ip);
            break;
        }
        case DhcpMessageType::kRequest: {
            ++stats_.requests;
            const Ipv4Address wanted = msg.requested_ip.value_or(msg.ciaddr);
            if (wanted.is_any()) {
                ++stats_.naks;
                reply(msg, DhcpMessageType::kNak, Ipv4Address::any());
                return;
            }
            auto it = leases_.find(wanted);
            const bool available =
                it == leases_.end() || it->second.expires <= now || it->second.mac == msg.chaddr;
            if (!available) {
                ++stats_.naks;
                reply(msg, DhcpMessageType::kNak, Ipv4Address::any());
                return;
            }
            leases_[wanted] =
                Lease{msg.chaddr,
                      now + common::Duration::seconds(config_.lease_seconds)};
            ++stats_.acks;
            reply(msg, DhcpMessageType::kAck, wanted);
            break;
        }
        case DhcpMessageType::kRelease: {
            ++stats_.releases;
            auto it = leases_.find(msg.ciaddr);
            if (it != leases_.end() && it->second.mac == msg.chaddr) leases_.erase(it);
            break;
        }
        // Client-bound types, and DECLINE: the server acts on none of them.
        case DhcpMessageType::kOffer:
        case DhcpMessageType::kDecline:
        case DhcpMessageType::kAck:
        case DhcpMessageType::kNak:
            break;
    }
}

}  // namespace arpsec::host
