#include "wire/binding_key.hpp"

#include "wire/buffer.hpp"
#include "wire/dhcp_message.hpp"
#include "wire/ethernet.hpp"
#include "wire/ipv4_packet.hpp"

namespace arpsec::wire {

std::optional<std::uint64_t> binding_key(std::span<const std::uint8_t> frame) {
    ByteReader r{frame};
    r.skip(MacAddress::kSize);  // destination
    const MacAddress src = r.mac();
    const std::uint16_t type = r.u16();
    if (!r.ok()) return std::nullopt;

    if (type == static_cast<std::uint16_t>(EtherType::kArp)) {
        r.skip(14);  // htype, ptype, hlen, plen, op, sender hardware address
        const std::uint32_t sender_ip = r.u32();
        return r.ok() ? sender_ip : src.to_u64();
    }
    if (type != static_cast<std::uint16_t>(EtherType::kIpv4)) return std::nullopt;

    const std::uint8_t ver_ihl = r.u8();
    r.skip(8);  // tos, total length, identification, flags/fragment, ttl
    const std::uint8_t protocol = r.u8();
    r.skip(2);  // header checksum
    const std::uint32_t ip_src = r.u32();
    if (!r.ok()) return src.to_u64();
    // Ipv4Packet::parse accepts no header options, so neither does this.
    if (ver_ihl != 0x45 || protocol != static_cast<std::uint8_t>(IpProto::kUdp)) return ip_src;

    r.skip(4 + 2);  // destination address, UDP source port
    const std::uint16_t dst_port = r.u16();
    if (dst_port != DhcpMessage::kServerPort && dst_port != DhcpMessage::kClientPort) {
        return ip_src;
    }
    r.skip(4);  // UDP length, checksum
    const std::uint8_t op = r.u8();
    r.skip(11);  // htype, hlen, hops, xid, secs, flags
    const std::uint32_t ciaddr = r.u32();
    const std::uint32_t yiaddr = r.u32();
    if (!r.ok()) return ip_src;
    if (op == 2 /* BOOTREPLY */ && yiaddr != 0) return yiaddr;
    if (ciaddr != 0) return ciaddr;
    return ip_src;
}

}  // namespace arpsec::wire
