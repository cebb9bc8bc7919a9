#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/expected.hpp"

namespace arpsec::wire {

/// IPv4 address, stored in host byte order.
class Ipv4Address {
public:
    constexpr Ipv4Address() = default;
    constexpr explicit Ipv4Address(std::uint32_t value) : value_(value) {}
    constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
        : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) | (std::uint32_t{c} << 8) |
                 d) {}

    static constexpr Ipv4Address any() { return Ipv4Address{0U}; }
    static constexpr Ipv4Address broadcast() { return Ipv4Address{0xFFFFFFFFU}; }

    /// Parses dotted-quad notation ("192.168.1.7").
    static common::Expected<Ipv4Address> parse(std::string_view text);

    [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
    [[nodiscard]] constexpr bool is_any() const { return value_ == 0; }
    [[nodiscard]] constexpr bool is_broadcast() const { return value_ == 0xFFFFFFFFU; }

    [[nodiscard]] std::string to_string() const;
    /// Appends the same dotted quad to `out` (no string of its own).
    void append_to(std::string& out) const;

    constexpr auto operator<=>(const Ipv4Address&) const = default;

    /// Next address numerically (used when iterating DHCP pools).
    [[nodiscard]] constexpr Ipv4Address next() const { return Ipv4Address{value_ + 1}; }

private:
    std::uint32_t value_ = 0;
};

/// An IPv4 subnet in CIDR form (e.g. 192.168.1.0/24).
class Ipv4Subnet {
public:
    constexpr Ipv4Subnet() = default;
    constexpr Ipv4Subnet(Ipv4Address base, int prefix_len)
        : base_(Ipv4Address{base.value() & mask_for(prefix_len)}), prefix_len_(prefix_len) {}

    [[nodiscard]] constexpr bool contains(Ipv4Address a) const {
        return (a.value() & mask_for(prefix_len_)) == base_.value();
    }
    [[nodiscard]] constexpr Ipv4Address network() const { return base_; }
    [[nodiscard]] constexpr Ipv4Address broadcast_address() const {
        return Ipv4Address{base_.value() | ~mask_for(prefix_len_)};
    }
    [[nodiscard]] constexpr int prefix_len() const { return prefix_len_; }
    /// Host address at the given offset from the network address.
    [[nodiscard]] constexpr Ipv4Address host(std::uint32_t offset) const {
        return Ipv4Address{base_.value() + offset};
    }
    [[nodiscard]] std::string to_string() const;

private:
    static constexpr std::uint32_t mask_for(int prefix_len) {
        return prefix_len == 0 ? 0U : ~0U << (32 - prefix_len);
    }
    Ipv4Address base_{};
    int prefix_len_ = 0;
};

}  // namespace arpsec::wire

template <>
struct std::hash<arpsec::wire::Ipv4Address> {
    std::size_t operator()(const arpsec::wire::Ipv4Address& a) const noexcept {
        return std::hash<std::uint32_t>{}(a.value());
    }
};
