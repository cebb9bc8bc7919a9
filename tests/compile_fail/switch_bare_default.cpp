// Compile-fail fixture (ctest: compile_fail_switch_bare_default). A bare
// `default:` must not stand in for the enumerators a switch leaves out.
// -Wswitch accepts this switch; the project-wide -Werror=switch-enum is what
// rejects it, so a new DhcpMessageType cannot fall into a default unseen.

#include "wire/dhcp_message.hpp"

using arpsec::wire::DhcpMessageType;

int handled(DhcpMessageType type) {
    switch (type) {
        case DhcpMessageType::kDiscover:
        case DhcpMessageType::kRequest:
        case DhcpMessageType::kRelease:
            return 1;
        default:
            return 0;
    }
}

int main() { return handled(DhcpMessageType::kAck); }
