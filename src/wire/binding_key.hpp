#pragma once

#include <cstdint>
#include <optional>
#include <span>

namespace arpsec::wire {

/// The address whose IP->MAC binding a captured frame speaks for, read
/// straight from its wire bytes (no FrameBuffer, no allocation):
///
///   - ARP: the sender protocol address;
///   - IPv4 UDP to port 67 or 68 (DHCP): a BOOTREPLY's `yiaddr` if
///     non-zero, else `ciaddr` if non-zero, else the IPv4 source — the
///     lease a server ACK grants, or the one a client RELEASE gives up;
///   - other IPv4: the source address;
///   - ARP or IPv4 too short to read that address: the source MAC.
///
/// IPv4 keys are the 32-bit address; MAC keys are MacAddress::to_u64().
/// nullopt when the frame is shorter than an Ethernet header or carries
/// another EtherType. Every monitor-vantage detector keeps its state per
/// this address, so keying a partition on it never splits that state.
[[nodiscard]] std::optional<std::uint64_t> binding_key(std::span<const std::uint8_t> frame);

}  // namespace arpsec::wire
