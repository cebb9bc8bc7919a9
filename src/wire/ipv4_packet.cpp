#include "wire/ipv4_packet.hpp"

#include "wire/checksum.hpp"

namespace arpsec::wire {

Bytes Ipv4Packet::serialize() const {
    Bytes out;
    out.reserve(kHeaderSize + payload.size());
    ByteWriter w{out};
    w.u8(0x45);  // version 4, IHL 5
    w.u8(tos);
    w.u16(static_cast<std::uint16_t>(kHeaderSize + payload.size()));
    w.u16(identification);
    w.u16(0);  // flags + fragment offset: fragmentation is not modelled
    w.u8(ttl);
    w.u8(static_cast<std::uint8_t>(protocol));
    w.u16(0);  // checksum placeholder
    w.ipv4(src);
    w.ipv4(dst);
    const std::uint16_t csum =
        internet_checksum(std::span<const std::uint8_t>{out.data(), kHeaderSize});
    out[10] = static_cast<std::uint8_t>(csum >> 8);
    out[11] = static_cast<std::uint8_t>(csum);
    w.bytes(payload);
    return out;
}

const char* Ipv4Packet::parse_into(std::span<const std::uint8_t> data, Ipv4Packet& out) {
    if (data.size() < kHeaderSize) return "IPv4 packet shorter than header";
    if (internet_checksum(data.first(kHeaderSize)) != 0) return "IPv4 header checksum mismatch";
    ByteReader r{data};
    const std::uint8_t ver_ihl = r.u8();
    if (ver_ihl != 0x45) return "unsupported IPv4 version/IHL";
    out.tos = r.u8();
    const std::uint16_t total_len = r.u16();
    out.identification = r.u16();
    const std::uint16_t flags_frag = r.u16();
    if ((flags_frag & 0x3FFF) != 0) return "fragmented packets not supported";
    out.ttl = r.u8();
    out.protocol = static_cast<IpProto>(r.u8());
    r.u16();  // checksum, already verified
    out.src = r.ipv4();
    out.dst = r.ipv4();
    if (total_len < kHeaderSize || total_len > data.size()) {
        return "IPv4 total length inconsistent with buffer";
    }
    const std::span<const std::uint8_t> payload = r.take(total_len - kHeaderSize);
    if (!r.ok()) return "IPv4 payload truncated";
    out.payload.assign(payload.begin(), payload.end());
    return nullptr;
}

common::Expected<Ipv4Packet> Ipv4Packet::parse(std::span<const std::uint8_t> data) {
    Ipv4Packet p;
    if (const char* error = parse_into(data, p)) {
        return common::Expected<Ipv4Packet>::failure(error);
    }
    return p;
}

}  // namespace arpsec::wire
