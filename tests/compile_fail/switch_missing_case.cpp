// Compile-fail fixture (ctest: compile_fail_switch_missing_case). A switch
// over a repo enum with no `default:` must name every enumerator. This one
// leaves out kRelease, and the project-wide -Werror=switch rejects it, so a
// new DhcpMessageType cannot be added without handling it in every switch.

#include "wire/dhcp_message.hpp"

using arpsec::wire::DhcpMessageType;

int handled(DhcpMessageType type) {
    switch (type) {
        case DhcpMessageType::kDiscover:
        case DhcpMessageType::kOffer:
        case DhcpMessageType::kRequest:
        case DhcpMessageType::kDecline:
        case DhcpMessageType::kAck:
        case DhcpMessageType::kNak:
            return 1;
    }
    return 0;
}

int main() { return handled(DhcpMessageType::kAck); }
