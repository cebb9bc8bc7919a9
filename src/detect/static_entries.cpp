#include "detect/static_entries.hpp"

namespace arpsec::detect {

SchemeTraits StaticEntriesScheme::traits() const {
    SchemeTraits t;
    t.name = "static-entries";
    t.vantage = Vantage::kHost;
    t.detects = false;
    t.prevents_poisoning = true;
    t.requires_per_host_deploy = true;
    t.handles_dynamic_ips = false;
    t.deployment_cost = CostBand::kHigh;  // O(n^2) manual administration
    t.runtime_cost = CostBand::kNone;
    t.notes = "perfect prevention, unusable with DHCP; breaks on NIC replacement";
    return t;
}

void StaticEntriesScheme::protect_host(host::Host& host) {
    const auto now = host.network().now();
    for (const HostRecord& rec : ctx_.directory) {
        if (rec.mac == host.mac()) continue;
        host.arp_cache().set_static(rec.ip, rec.mac, now);
    }
}

}  // namespace arpsec::detect
