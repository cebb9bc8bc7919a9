#include "wire/dhcp_message.hpp"

namespace arpsec::wire {
namespace {

enum : std::uint8_t {
    kOptSubnetMask = 1,
    kOptRouter = 3,
    kOptRequestedIp = 50,
    kOptLeaseTime = 51,
    kOptMessageType = 53,
    kOptServerId = 54,
    kOptEnd = 255,
};

}  // namespace

std::string to_string(DhcpMessageType t) {
    switch (t) {
        case DhcpMessageType::kDiscover: return "DISCOVER";
        case DhcpMessageType::kOffer: return "OFFER";
        case DhcpMessageType::kRequest: return "REQUEST";
        case DhcpMessageType::kDecline: return "DECLINE";
        case DhcpMessageType::kAck: return "ACK";
        case DhcpMessageType::kNak: return "NAK";
        case DhcpMessageType::kRelease: return "RELEASE";
    }
    return "type" + std::to_string(static_cast<int>(t));
}

Bytes DhcpMessage::serialize() const {
    Bytes out;
    out.reserve(260);
    ByteWriter w{out};
    w.u8(op);
    w.u8(1);                    // htype: Ethernet
    w.u8(MacAddress::kSize);    // hlen
    w.u8(0);                    // hops
    w.u32(xid);
    w.u16(secs);
    w.u16(flags);
    w.ipv4(ciaddr);
    w.ipv4(yiaddr);
    w.ipv4(siaddr);
    w.ipv4(giaddr);
    w.mac(chaddr);
    w.fill(10);   // chaddr padding to 16 bytes
    w.fill(64);   // sname
    w.fill(128);  // file
    w.u32(kMagicCookie);

    w.u8(kOptMessageType);
    w.u8(1);
    w.u8(static_cast<std::uint8_t>(message_type));
    if (requested_ip) {
        w.u8(kOptRequestedIp);
        w.u8(4);
        w.ipv4(*requested_ip);
    }
    if (lease_seconds) {
        w.u8(kOptLeaseTime);
        w.u8(4);
        w.u32(*lease_seconds);
    }
    if (server_id) {
        w.u8(kOptServerId);
        w.u8(4);
        w.ipv4(*server_id);
    }
    if (subnet_mask) {
        w.u8(kOptSubnetMask);
        w.u8(4);
        w.ipv4(*subnet_mask);
    }
    if (router) {
        w.u8(kOptRouter);
        w.u8(4);
        w.ipv4(*router);
    }
    w.u8(kOptEnd);
    return out;
}

common::Expected<DhcpMessage> DhcpMessage::parse(std::span<const std::uint8_t> data) {
    using R = common::Expected<DhcpMessage>;
    ByteReader r{data};
    DhcpMessage m;
    m.op = r.u8();
    const std::uint8_t htype = r.u8();
    const std::uint8_t hlen = r.u8();
    r.u8();  // hops
    m.xid = r.u32();
    m.secs = r.u16();
    m.flags = r.u16();
    m.ciaddr = r.ipv4();
    m.yiaddr = r.ipv4();
    m.siaddr = r.ipv4();
    m.giaddr = r.ipv4();
    m.chaddr = r.mac();
    r.skip(10);   // chaddr padding
    r.skip(64);   // sname
    r.skip(128);  // file
    const std::uint32_t cookie = r.u32();
    if (!r.ok()) return R::failure("DHCP message truncated before options");
    if (m.op != 1 && m.op != 2) return R::failure("invalid DHCP op");
    if (htype != 1 || hlen != MacAddress::kSize) {
        return R::failure("unsupported DHCP hardware type");
    }
    if (cookie != kMagicCookie) return R::failure("missing DHCP magic cookie");

    bool saw_message_type = false;
    while (r.remaining() > 0) {
        const std::uint8_t code = r.u8();
        if (code == kOptEnd) break;
        if (code == 0) continue;  // pad
        const std::uint8_t len = r.u8();
        const std::span<const std::uint8_t> body = r.take(len);
        if (!r.ok()) return R::failure("DHCP option truncated");
        ByteReader b{body};
        switch (code) {
            case kOptMessageType: {
                if (len != 1) return R::failure("bad DHCP message-type option length");
                const std::uint8_t t = b.u8();
                if (t < 1 || t > 7) return R::failure("unknown DHCP message type");
                m.message_type = static_cast<DhcpMessageType>(t);
                saw_message_type = true;
                break;
            }
            case kOptRequestedIp:
                if (len != 4) return R::failure("bad requested-IP option length");
                m.requested_ip = b.ipv4();
                break;
            case kOptLeaseTime:
                if (len != 4) return R::failure("bad lease-time option length");
                m.lease_seconds = b.u32();
                break;
            case kOptServerId:
                if (len != 4) return R::failure("bad server-id option length");
                m.server_id = b.ipv4();
                break;
            case kOptSubnetMask:
                if (len != 4) return R::failure("bad subnet-mask option length");
                m.subnet_mask = b.ipv4();
                break;
            case kOptRouter:
                if (len != 4) return R::failure("bad router option length");
                m.router = b.ipv4();
                break;
            default:
                break;  // unknown options are skipped
        }
    }
    if (!saw_message_type) return R::failure("DHCP message missing message-type option");
    return m;
}

}  // namespace arpsec::wire
