#pragma once

#include <cstdint>
#include <string>

#include "common/expected.hpp"
#include "wire/buffer.hpp"
#include "wire/mac_address.hpp"

namespace arpsec::wire {

enum class EtherType : std::uint16_t {
    kIpv4 = 0x0800,
    kArp = 0x0806,
};

[[nodiscard]] std::string to_string(EtherType t);

/// The 14 fixed Ethernet II header bytes, decoded without touching the
/// payload. FrameView memoizes exactly this, so the header-only parser is
/// shared with EthernetFrame::parse — the two can never disagree about what
/// constitutes a valid frame.
struct EthernetHeader {
    MacAddress dst;
    MacAddress src;
    EtherType ether_type = EtherType::kIpv4;
};

[[nodiscard]] common::Expected<EthernetHeader> parse_ethernet_header(
    std::span<const std::uint8_t> data);

/// The same parse, into `out` in place: returns null on success, else the
/// error text parse_ethernet_header() reports (`out` is then unspecified).
/// FrameView's memo fills this way, with no Expected temporary.
[[nodiscard]] const char* parse_ethernet_header_into(std::span<const std::uint8_t> data,
                                                     EthernetHeader& out);

/// Ethernet II frame. The simulator serializes each frame to wire bytes
/// once, at origin (see wire::FrameBuffer); every receiver then reads the
/// exact byte stream a libpcap tap would through a shared wire::FrameView.
struct EthernetFrame {
    static constexpr std::size_t kHeaderSize = 14;
    static constexpr std::size_t kMinPayload = 46;   // 802.3 minimum (frames are padded)
    static constexpr std::size_t kMaxPayload = 1500; // MTU

    MacAddress dst;
    MacAddress src;
    EtherType ether_type = EtherType::kIpv4;
    Bytes payload;

    /// Serializes, padding the payload to the 46-byte Ethernet minimum.
    [[nodiscard]] Bytes serialize() const;

    static common::Expected<EthernetFrame> parse(std::span<const std::uint8_t> data);

    /// Size on the wire after padding (excluding preamble/FCS, like pcap).
    [[nodiscard]] std::size_t wire_size() const;
};

}  // namespace arpsec::wire
