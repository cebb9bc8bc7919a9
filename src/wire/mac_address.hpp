#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/expected.hpp"

namespace arpsec::wire {

/// 48-bit IEEE 802 MAC address.
class MacAddress {
public:
    static constexpr std::size_t kSize = 6;

    constexpr MacAddress() = default;
    constexpr explicit MacAddress(std::array<std::uint8_t, kSize> octets) : octets_(octets) {}
    constexpr MacAddress(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d,
                         std::uint8_t e, std::uint8_t f)
        : octets_{a, b, c, d, e, f} {}

    /// ff:ff:ff:ff:ff:ff
    static constexpr MacAddress broadcast() {
        return MacAddress{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
    }
    static constexpr MacAddress zero() { return MacAddress{}; }

    /// Builds a locally-administered unicast address from a 40-bit id:
    /// 02:xx:xx:xx:xx:xx. Used by the simulator to hand out unique NICs.
    static constexpr MacAddress local(std::uint64_t id) {
        return MacAddress{0x02,
                          static_cast<std::uint8_t>(id >> 32),
                          static_cast<std::uint8_t>(id >> 24),
                          static_cast<std::uint8_t>(id >> 16),
                          static_cast<std::uint8_t>(id >> 8),
                          static_cast<std::uint8_t>(id)};
    }

    /// Parses "aa:bb:cc:dd:ee:ff" or "aa-bb-cc-dd-ee-ff".
    static common::Expected<MacAddress> parse(std::string_view text);

    [[nodiscard]] constexpr const std::array<std::uint8_t, kSize>& octets() const {
        return octets_;
    }
    [[nodiscard]] constexpr bool is_broadcast() const { return *this == broadcast(); }
    [[nodiscard]] constexpr bool is_multicast() const { return (octets_[0] & 0x01) != 0; }
    [[nodiscard]] constexpr bool is_zero() const { return *this == zero(); }
    /// Unicast = neither broadcast nor group address.
    [[nodiscard]] constexpr bool is_unicast() const { return !is_multicast(); }

    [[nodiscard]] std::string to_string() const;
    /// Appends the same text to `out` (no string of its own).
    void append_to(std::string& out) const;

    /// The address as a 48-bit integer (useful as a map key).
    [[nodiscard]] constexpr std::uint64_t to_u64() const {
        std::uint64_t v = 0;
        for (std::uint8_t o : octets_) v = (v << 8) | o;
        return v;
    }

    /// One integer compare. The defaulted == compares the octet array
    /// through a memcmp call, and every frame a monitor scheme reads pays a
    /// few of them.
    constexpr bool operator==(const MacAddress& o) const {
        if (std::is_constant_evaluated()) return octets_ == o.octets_;
        return bits() == o.bits();
    }
    constexpr auto operator<=>(const MacAddress&) const = default;

private:
    /// The six octets as one integer in host byte order: an equality key,
    /// not an order (to_u64() is the ordered one).
    [[nodiscard]] std::uint64_t bits() const {
        std::uint32_t head = 0;
        std::uint16_t tail = 0;
        std::memcpy(&head, octets_.data(), sizeof head);
        std::memcpy(&tail, octets_.data() + sizeof head, sizeof tail);
        return (std::uint64_t{tail} << 32) | head;
    }

    std::array<std::uint8_t, kSize> octets_{};
};

}  // namespace arpsec::wire

template <>
struct std::hash<arpsec::wire::MacAddress> {
    std::size_t operator()(const arpsec::wire::MacAddress& m) const noexcept {
        return std::hash<std::uint64_t>{}(m.to_u64() * 0x9E3779B97f4A7C15ULL);
    }
};
