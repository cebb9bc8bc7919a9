#include "wire/ethernet.hpp"

#include <algorithm>

namespace arpsec::wire {

std::string to_string(EtherType t) {
    switch (t) {
        case EtherType::kIpv4: return "IPv4";
        case EtherType::kArp: return "ARP";
    }
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%04x", static_cast<unsigned>(t));
    return buf;
}

Bytes EthernetFrame::serialize() const {
    Bytes out;
    out.reserve(kHeaderSize + std::max(payload.size(), kMinPayload));
    ByteWriter w{out};
    w.mac(dst);
    w.mac(src);
    w.u16(static_cast<std::uint16_t>(ether_type));
    w.bytes(payload);
    if (payload.size() < kMinPayload) w.fill(kMinPayload - payload.size());
    return out;
}

const char* parse_ethernet_header_into(std::span<const std::uint8_t> data,
                                       EthernetHeader& out) {
    ByteReader r{data};
    out.dst = r.mac();
    out.src = r.mac();
    const std::uint16_t type = r.u16();
    if (!r.ok()) return "frame shorter than Ethernet header";
    if (type != static_cast<std::uint16_t>(EtherType::kIpv4) &&
        type != static_cast<std::uint16_t>(EtherType::kArp)) {
        return "unsupported EtherType";
    }
    out.ether_type = static_cast<EtherType>(type);
    return nullptr;
}

common::Expected<EthernetHeader> parse_ethernet_header(std::span<const std::uint8_t> data) {
    EthernetHeader h;
    if (const char* error = parse_ethernet_header_into(data, h)) {
        return common::Expected<EthernetHeader>::failure(error);
    }
    return h;
}

common::Expected<EthernetFrame> EthernetFrame::parse(std::span<const std::uint8_t> data) {
    using R = common::Expected<EthernetFrame>;
    auto header = parse_ethernet_header(data);
    if (!header.ok()) return R::failure(header.error());
    EthernetFrame f;
    f.dst = header->dst;
    f.src = header->src;
    f.ether_type = header->ether_type;
    // lint:allow(untrusted-read-bounds): parse_ethernet_header() proved size >= kHeaderSize
    f.payload.assign(data.begin() + static_cast<std::ptrdiff_t>(kHeaderSize), data.end());
    return f;
}

std::size_t EthernetFrame::wire_size() const {
    return kHeaderSize + std::max(payload.size(), kMinPayload);
}

}  // namespace arpsec::wire
