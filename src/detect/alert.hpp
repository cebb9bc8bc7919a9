#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "telemetry/metrics.hpp"
#include "wire/ipv4_address.hpp"
#include "wire/mac_address.hpp"

namespace arpsec::detect {

enum class AlertKind {
    kSpoofSuspected,     // scheme believes an ARP poisoning attempt happened
    kIpMacChange,        // a known IP moved to a new MAC (arpwatch "changed")
    kFlipFlop,           // an IP oscillating between two MACs
    kUnsignedArp,        // cryptographic scheme saw an unauthenticated packet
    kBindingViolation,   // claim contradicts an authoritative table
    kInconsistentHeader, // Ethernet/ARP header fields disagree
    kUnicastRequest,     // tool signature: unicast ARP request
    kPortSecurity,       // switch port-security violation
    kRogueDhcp,          // DHCP server traffic on an untrusted port
    kRateAnomaly,        // ARP rate limit exceeded
};

/// Number of AlertKind values: kRateAnomaly must stay the last one.
inline constexpr std::size_t kAlertKindCount =
    static_cast<std::size_t>(AlertKind::kRateAnomaly) + 1;

[[nodiscard]] std::string to_string(AlertKind k);
/// The same name without a string to own it (alert encoders append it).
[[nodiscard]] std::string_view kind_name(AlertKind k);

/// One alert raised by a scheme. `claimed_mac` is the MAC the suspicious
/// packet asserted; the harness classifies alerts as true/false positives
/// against attack ground truth.
struct Alert {
    common::SimTime at;
    std::string scheme;
    AlertKind kind = AlertKind::kSpoofSuspected;
    wire::Ipv4Address ip;
    wire::MacAddress claimed_mac;
    wire::MacAddress previous_mac;
    std::string detail;

    [[nodiscard]] std::string to_string() const;
};

/// Collects alerts from the scheme under test (the "syslog/email" channel
/// every analyzed tool reports through).
class AlertSink {
public:
    void report(Alert alert) {
        if (on_alert) on_alert(alert);
        alerts_.push_back(std::move(alert));
    }

    [[nodiscard]] const std::vector<Alert>& alerts() const { return alerts_; }
    [[nodiscard]] std::size_t count() const { return alerts_.size(); }
    void clear() { alerts_.clear(); }
    /// Moves the collected alerts out, leaving the sink empty.
    [[nodiscard]] std::vector<Alert> take() { return std::exchange(alerts_, {}); }

    /// Publishes alert totals into `registry`: `detect.alerts.total`, a
    /// per-kind breakdown under `detect.alerts.kind.<kind>`, a per-scheme
    /// breakdown under `detect.alerts.scheme.<scheme>`, and the time of the
    /// first alert (`detect.first_alert_us` gauge, -1 when none fired).
    void export_metrics(telemetry::MetricsRegistry& registry) const;

    /// Optional live callback (examples print alerts as they happen).
    std::function<void(const Alert&)> on_alert;

private:
    std::vector<Alert> alerts_;
};

}  // namespace arpsec::detect
