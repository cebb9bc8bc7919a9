#include "wire/mac_address.hpp"

namespace arpsec::wire {
namespace {

int nibble(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

}  // namespace

common::Expected<MacAddress> MacAddress::parse(std::string_view text) {
    using R = common::Expected<MacAddress>;
    if (text.size() != 17) return R::failure("MAC address must be 17 characters");
    std::array<std::uint8_t, kSize> octets{};
    for (std::size_t i = 0; i < kSize; ++i) {
        const std::size_t at = i * 3;
        const int hi = nibble(text[at]);
        const int lo = nibble(text[at + 1]);
        if (hi < 0 || lo < 0) return R::failure("invalid hex digit in MAC address");
        octets[i] = static_cast<std::uint8_t>((hi << 4) | lo);
        if (i + 1 < kSize) {
            const char sep = text[at + 2];
            if (sep != ':' && sep != '-') return R::failure("expected ':' or '-' separator");
        }
    }
    return MacAddress{octets};
}

std::string MacAddress::to_string() const {
    std::string s;
    append_to(s);
    return s;
}

void MacAddress::append_to(std::string& out) const {
    static constexpr char kHex[] = "0123456789abcdef";
    for (std::size_t i = 0; i < kSize; ++i) {
        if (i > 0) out += ':';
        out += kHex[octets_[i] >> 4];
        out += kHex[octets_[i] & 0xF];
    }
}

}  // namespace arpsec::wire
