#pragma once

#include <cstdint>
#include <string>

#include "common/expected.hpp"
#include "wire/buffer.hpp"
#include "wire/ipv4_address.hpp"

namespace arpsec::wire {

enum class IpProto : std::uint8_t {
    kIcmp = 1,
    kTcp = 6,
    kUdp = 17,
};

/// IPv4 packet (fixed 20-byte header, no options) with header checksum.
struct Ipv4Packet {
    static constexpr std::size_t kHeaderSize = 20;
    static constexpr std::uint8_t kDefaultTtl = 64;

    std::uint8_t tos = 0;
    std::uint16_t identification = 0;
    std::uint8_t ttl = kDefaultTtl;
    IpProto protocol = IpProto::kUdp;
    Ipv4Address src;
    Ipv4Address dst;
    Bytes payload;

    /// Serializes with a freshly computed header checksum.
    [[nodiscard]] Bytes serialize() const;

    /// Parses and verifies the header checksum and total length.
    static common::Expected<Ipv4Packet> parse(std::span<const std::uint8_t> data);
    /// The same parse, into `out` in place (the payload reuses
    /// `out.payload`'s capacity): returns null on success, else the error
    /// text parse() reports (`out` is then unspecified).
    [[nodiscard]] static const char* parse_into(std::span<const std::uint8_t> data,
                                                Ipv4Packet& out);
};

}  // namespace arpsec::wire
