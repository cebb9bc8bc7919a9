#pragma once

#include <cstdint>
#include <string>

#include "common/expected.hpp"
#include "wire/buffer.hpp"
#include "wire/ipv4_address.hpp"
#include "wire/mac_address.hpp"

namespace arpsec::wire {

enum class ArpOp : std::uint16_t {
    kRequest = 1,
    kReply = 2,
};

[[nodiscard]] std::string to_string(ArpOp op);

/// RFC 826 ARP packet for Ethernet/IPv4, with an optional authentication
/// trailer used by the cryptographic schemes (S-ARP and TARP both extend the
/// ARP payload past the classic 28 bytes; legacy stacks ignore the trailer).
///
/// The trailer is encoded as [magic u16][length u16][bytes...] so that the
/// zero padding Ethernet adds to short frames can never be misparsed as an
/// authentication extension.
struct ArpPacket {
    static constexpr std::size_t kClassicSize = 28;
    static constexpr std::uint16_t kHtypeEthernet = 1;
    static constexpr std::uint16_t kPtypeIpv4 = 0x0800;
    static constexpr std::uint16_t kAuthMagic = 0x5A17;

    std::uint16_t htype = kHtypeEthernet;
    std::uint16_t ptype = kPtypeIpv4;
    std::uint8_t hlen = MacAddress::kSize;
    std::uint8_t plen = 4;
    ArpOp op = ArpOp::kRequest;
    MacAddress sender_mac;
    Ipv4Address sender_ip;
    MacAddress target_mac;
    Ipv4Address target_ip;
    /// Opaque authentication trailer (empty for classic ARP).
    Bytes auth;

    [[nodiscard]] Bytes serialize() const;
    static common::Expected<ArpPacket> parse(std::span<const std::uint8_t> data);
    /// The same parse, into `out` in place (the trailer reuses `out.auth`'s
    /// capacity): returns null on success, else the error text parse()
    /// reports (`out` is then unspecified).
    [[nodiscard]] static const char* parse_into(std::span<const std::uint8_t> data,
                                                ArpPacket& out);

    /// A request asking who-has `ip`, from (mac, self_ip).
    static ArpPacket request(MacAddress mac, Ipv4Address self_ip, Ipv4Address ip);
    /// A reply telling `to` that `ip` is at `mac`.
    static ArpPacket reply(MacAddress mac, Ipv4Address ip, MacAddress to_mac, Ipv4Address to_ip);
    /// Gratuitous announcement (sender == target IP). `as_reply` selects the
    /// reply-form variant; both are seen in the wild.
    static ArpPacket gratuitous(MacAddress mac, Ipv4Address ip, bool as_reply);

    /// Gratuitous = sender IP equals target IP (an unsolicited announcement).
    [[nodiscard]] bool is_gratuitous() const { return sender_ip == target_ip; }

    /// The 28 classic bytes only — the region cryptographic schemes sign.
    [[nodiscard]] Bytes classic_bytes() const;

    [[nodiscard]] std::string summary() const;
};

}  // namespace arpsec::wire
