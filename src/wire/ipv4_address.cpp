#include "wire/ipv4_address.hpp"

#include <charconv>

namespace arpsec::wire {

common::Expected<Ipv4Address> Ipv4Address::parse(std::string_view text) {
    using R = common::Expected<Ipv4Address>;
    std::uint32_t value = 0;
    int octets = 0;
    std::size_t i = 0;
    while (octets < 4) {
        if (i >= text.size() || text[i] < '0' || text[i] > '9') {
            return R::failure("expected digit in IPv4 address");
        }
        std::uint32_t octet = 0;
        std::size_t digits = 0;
        while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
            octet = octet * 10 + static_cast<std::uint32_t>(text[i] - '0');
            ++digits;
            ++i;
            if (digits > 3 || octet > 255) return R::failure("IPv4 octet out of range");
        }
        value = (value << 8) | octet;
        ++octets;
        if (octets < 4) {
            if (i >= text.size() || text[i] != '.') return R::failure("expected '.' separator");
            ++i;
        }
    }
    if (i != text.size()) return R::failure("trailing characters after IPv4 address");
    return Ipv4Address{value};
}

std::string Ipv4Address::to_string() const {
    std::string s;  // at most 15 chars: stays in the small-string buffer
    append_to(s);
    return s;
}

void Ipv4Address::append_to(std::string& out) const {
    for (int shift = 24; shift >= 0; shift -= 8) {
        char octet[3];
        const char* end =
            std::to_chars(octet, octet + sizeof(octet), (value_ >> shift) & 0xFF).ptr;
        out.append(octet, static_cast<std::size_t>(end - octet));
        if (shift > 0) out += '.';
    }
}

std::string Ipv4Subnet::to_string() const {
    return network().to_string() + "/" + std::to_string(prefix_len_);
}

}  // namespace arpsec::wire
