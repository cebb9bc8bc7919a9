#pragma once

#include <unordered_map>

#include "common/time.hpp"
#include "detect/scheme.hpp"

namespace arpsec::detect {

/// Software lease monitor ("DAI without the managed switch"): a passive
/// station on the mirror port snoops DHCP ACKs into a lease table and
/// flags every observed ARP claim that contradicts a live lease. Detection
/// quality approaches DAI (leases are authoritative and follow churn), but
/// with no enforcement — forged packets still reach their victims — and
/// statically addressed stations are invisible to it.
class LeaseMonitorScheme final : public Scheme {
public:
    struct Options {
        /// Also alert when a *leased* IP's traffic appears with a source
        /// MAC other than the lease holder's (catches MAC cloning too).
        bool check_ip_traffic = false;
        common::Duration realert_backoff = common::Duration::seconds(10);
    };

    LeaseMonitorScheme() = default;
    explicit LeaseMonitorScheme(Options options) : options_(options) {}

    [[nodiscard]] SchemeTraits traits() const override;
    void attach_monitor(MonitorNode& monitor) override;

    /// The lease table and re-alert clock round-trip through
    /// `snapshot_state`, so a restarted serve shard still checks claims
    /// against leases it snooped before the restart.
    [[nodiscard]] telemetry::Json snapshot_state() const override;
    void restore_state(const telemetry::Json& state) override;

    /// Live leases currently known (for tests/examples).
    [[nodiscard]] std::size_t lease_count() const;

private:
    class Observer;
    Options options_;
    std::shared_ptr<Observer> observer_;
};

}  // namespace arpsec::detect
