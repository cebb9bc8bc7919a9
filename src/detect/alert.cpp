#include "detect/alert.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

namespace arpsec::detect {

std::string to_string(AlertKind k) { return std::string{kind_name(k)}; }

std::string_view kind_name(AlertKind k) {
    switch (k) {
        case AlertKind::kSpoofSuspected: return "spoof-suspected";
        case AlertKind::kIpMacChange: return "ip-mac-change";
        case AlertKind::kFlipFlop: return "flip-flop";
        case AlertKind::kUnsignedArp: return "unsigned-arp";
        case AlertKind::kBindingViolation: return "binding-violation";
        case AlertKind::kInconsistentHeader: return "inconsistent-header";
        case AlertKind::kUnicastRequest: return "unicast-request";
        case AlertKind::kPortSecurity: return "port-security";
        case AlertKind::kRogueDhcp: return "rogue-dhcp";
        case AlertKind::kRateAnomaly: return "rate-anomaly";
    }
    return "?";
}

void AlertSink::export_metrics(telemetry::MetricsRegistry& registry) const {
    registry.counter("detect.alerts.total").inc(alerts_.size());
    telemetry::Gauge& first = registry.gauge("detect.first_alert_us");
    first.set(-1);
    if (!alerts_.empty()) {
        first.set(static_cast<std::int64_t>(alerts_.front().at.nanos() / 1000));
    }
    // Tally first, then touch each counter once: a registry lookup builds
    // its name string and walks a std::map, too much to pay per alert.
    std::array<std::uint64_t, kAlertKindCount> per_kind{};
    std::vector<std::pair<const std::string*, std::uint64_t>> per_scheme;
    for (const Alert& a : alerts_) {
        ++per_kind[static_cast<std::size_t>(a.kind)];
        auto it = std::find_if(per_scheme.begin(), per_scheme.end(),
                               [&](const auto& entry) { return *entry.first == a.scheme; });
        if (it == per_scheme.end()) it = per_scheme.insert(it, {&a.scheme, 0});
        ++it->second;
    }
    for (std::size_t k = 0; k < kAlertKindCount; ++k) {
        if (per_kind[k] == 0) continue;
        registry.counter("detect.alerts.kind." + detect::to_string(static_cast<AlertKind>(k)))
            .inc(per_kind[k]);
    }
    for (const auto& [scheme, n] : per_scheme) {
        registry.counter("detect.alerts.scheme." + *scheme).inc(n);
    }
}

std::string Alert::to_string() const {
    // Appended, not `"literal" + std::string` chains: GCC 12 reports a false
    // -Wrestrict on the inserting operator+ overloads at -O2 and above.
    std::string out{"["};
    out.append(at.to_string()).append("] ").append(scheme).append(": ");
    out.append(detect::to_string(kind)).append(" ip=").append(ip.to_string());
    out.append(" claimed=").append(claimed_mac.to_string());
    if (!previous_mac.is_zero()) out.append(" was=").append(previous_mac.to_string());
    if (!detail.empty()) out.append(" (").append(detail).append(")");
    return out;
}

}  // namespace arpsec::detect
