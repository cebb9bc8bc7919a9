#pragma once

#include <cstdint>
#include <span>

#include "common/expected.hpp"
#include "wire/buffer.hpp"

namespace arpsec::wire {

/// A checked UDP datagram read in place: its ports, and its payload as a
/// span of the bytes it was read from (valid as long as they are).
struct UdpView {
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::span<const std::uint8_t> payload;
};

/// UDP datagram. The checksum is computed over the datagram only (the
/// optional IPv4 pseudo-header is omitted; the simulator's IPv4 layer
/// already integrity-checks addressing via its own header checksum).
struct UdpDatagram {
    static constexpr std::size_t kHeaderSize = 8;

    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    Bytes payload;

    [[nodiscard]] Bytes serialize() const;
    /// view() plus a copy of the payload.
    static common::Expected<UdpDatagram> parse(std::span<const std::uint8_t> data);
    /// The one checked header walk (length and checksum), copying nothing:
    /// monitors that only read the payload (DHCP snooping) use this.
    static common::Expected<UdpView> view(std::span<const std::uint8_t> data);
};

}  // namespace arpsec::wire
