// Compile-fail fixture (ctest: compile_fail_discarded_expected). Discarding
// the result of a wire parser must not build. ArpPacket::parse carries no
// attribute of its own: common::Expected's class-level [[nodiscard]] and the
// project-wide -Werror=unused-result are what reject this statement.

#include <array>
#include <cstdint>

#include "wire/arp_packet.hpp"

int main() {
    const std::array<std::uint8_t, arpsec::wire::ArpPacket::kClassicSize> bytes{};
    arpsec::wire::ArpPacket::parse(bytes);
    return 0;
}
