#include "wire/arp_packet.hpp"

namespace arpsec::wire {

std::string to_string(ArpOp op) {
    switch (op) {
        case ArpOp::kRequest: return "request";
        case ArpOp::kReply: return "reply";
    }
    return "op" + std::to_string(static_cast<int>(op));
}

Bytes ArpPacket::classic_bytes() const {
    Bytes out;
    out.reserve(kClassicSize);
    ByteWriter w{out};
    w.u16(htype);
    w.u16(ptype);
    w.u8(hlen);
    w.u8(plen);
    w.u16(static_cast<std::uint16_t>(op));
    w.mac(sender_mac);
    w.ipv4(sender_ip);
    w.mac(target_mac);
    w.ipv4(target_ip);
    return out;
}

Bytes ArpPacket::serialize() const {
    Bytes out = classic_bytes();
    if (!auth.empty()) {
        ByteWriter w{out};
        w.u16(kAuthMagic);
        w.u16(static_cast<std::uint16_t>(auth.size()));
        w.bytes(auth);
    }
    return out;
}

const char* ArpPacket::parse_into(std::span<const std::uint8_t> data, ArpPacket& out) {
    ByteReader r{data};
    out.htype = r.u16();
    out.ptype = r.u16();
    out.hlen = r.u8();
    out.plen = r.u8();
    const std::uint16_t op = r.u16();
    out.sender_mac = r.mac();
    out.sender_ip = r.ipv4();
    out.target_mac = r.mac();
    out.target_ip = r.ipv4();
    if (!r.ok()) return "ARP packet truncated";
    if (out.htype != kHtypeEthernet || out.ptype != kPtypeIpv4) {
        return "unsupported ARP hardware/protocol type";
    }
    if (out.hlen != MacAddress::kSize || out.plen != 4) return "unexpected ARP address lengths";
    if (op != static_cast<std::uint16_t>(ArpOp::kRequest) &&
        op != static_cast<std::uint16_t>(ArpOp::kReply)) {
        return "unknown ARP opcode";
    }
    out.op = static_cast<ArpOp>(op);
    out.auth.clear();
    // Optional authentication trailer. Ethernet padding is all zeros and
    // cannot match the magic, so plain frames parse with an empty trailer.
    if (r.remaining() >= 4) {
        ByteReader peek{data.subspan(r.position())};
        if (peek.u16() == kAuthMagic) {
            r.skip(2);
            const std::uint16_t len = r.u16();
            const std::span<const std::uint8_t> trailer = r.take(len);
            if (!r.ok()) return "ARP auth trailer truncated";
            out.auth.assign(trailer.begin(), trailer.end());
        }
    }
    return nullptr;
}

common::Expected<ArpPacket> ArpPacket::parse(std::span<const std::uint8_t> data) {
    ArpPacket p;
    if (const char* error = parse_into(data, p)) {
        return common::Expected<ArpPacket>::failure(error);
    }
    return p;
}

ArpPacket ArpPacket::request(MacAddress mac, Ipv4Address self_ip, Ipv4Address ip) {
    ArpPacket p;
    p.op = ArpOp::kRequest;
    p.sender_mac = mac;
    p.sender_ip = self_ip;
    p.target_mac = MacAddress::zero();
    p.target_ip = ip;
    return p;
}

ArpPacket ArpPacket::reply(MacAddress mac, Ipv4Address ip, MacAddress to_mac, Ipv4Address to_ip) {
    ArpPacket p;
    p.op = ArpOp::kReply;
    p.sender_mac = mac;
    p.sender_ip = ip;
    p.target_mac = to_mac;
    p.target_ip = to_ip;
    return p;
}

ArpPacket ArpPacket::gratuitous(MacAddress mac, Ipv4Address ip, bool as_reply) {
    ArpPacket p;
    p.op = as_reply ? ArpOp::kReply : ArpOp::kRequest;
    p.sender_mac = mac;
    p.sender_ip = ip;
    p.target_mac = as_reply ? MacAddress::broadcast() : MacAddress::zero();
    p.target_ip = ip;
    return p;
}

std::string ArpPacket::summary() const {
    std::string s = "ARP " + to_string(op) + " " + sender_ip.to_string() + " is-at " +
                    sender_mac.to_string() + " -> " + target_ip.to_string();
    if (!auth.empty()) s += " [auth " + std::to_string(auth.size()) + "B]";
    return s;
}

}  // namespace arpsec::wire
