#include "detect/active_probe.hpp"

#include <memory>
#include <unordered_map>

#include "detect/state_json.hpp"

namespace arpsec::detect {

class ActiveProbeScheme::Prober final : public TrafficObserver,
                                        public std::enable_shared_from_this<Prober> {
public:
    Prober(ActiveProbeScheme::Options options, std::function<void(Alert)> raise)
        : options_(options), raise_(std::move(raise)) {}

    void on_observed(MonitorNode& monitor, common::SimTime at, const wire::FrameView& view,
                     const wire::ArpPacket* arp) override {
        (void)view;
        if (arp == nullptr || arp->sender_ip.is_any() || arp->sender_mac.is_zero()) return;
        const wire::Ipv4Address ip = arp->sender_ip;
        const wire::MacAddress mac = arp->sender_mac;

        // Evidence for an in-flight verification?
        if (auto it = probes_.find(ip); it != probes_.end()) {
            Probe& p = it->second;
            if (mac == p.old_mac) {
                // Old station still alive while a new MAC claims the IP:
                // attack confirmed.
                monitor.network().scheduler().cancel(p.timeout_event);
                Alert a;
                a.kind = AlertKind::kSpoofSuspected;
                a.ip = ip;
                a.claimed_mac = p.new_mac;
                a.previous_mac = p.old_mac;
                a.detail = "both stations answered for one IP";
                raise_(std::move(a));
                last_alert_[ip] = at;
                probes_.erase(it);
            }
            return;
        }

        auto it = db_.find(ip);
        if (it == db_.end()) {
            db_[ip] = mac;
            return;
        }
        if (it->second == mac) return;

        // Conflicting claim: under backoff, skip re-verification.
        if (auto la = last_alert_.find(ip);
            la != last_alert_.end() && at - la->second < options_.realert_backoff) {
            return;
        }

        // Start verification: unicast probe to the previously known MAC.
        Probe p;
        p.old_mac = it->second;
        p.new_mac = mac;
        p.timeout_at = at + options_.probe_timeout;
        probes_[ip] = p;
        arm_timeout(monitor.network().scheduler(), ip);

        wire::EthernetFrame probe;
        probe.dst = p.old_mac;
        probe.ether_type = wire::EtherType::kArp;
        // Sender IP zero: a neutral probe that cannot poison any cache.
        probe.payload =
            wire::ArpPacket::request(monitor.mac(), wire::Ipv4Address::any(), ip).serialize();
        monitor.transmit(std::move(probe));
        ++probes_sent_;
    }

    void probe_timeout(wire::Ipv4Address ip) {
        auto it = probes_.find(ip);
        if (it == probes_.end()) return;
        // Old station silent: legitimate rebind; update quietly.
        db_[ip] = it->second.new_mac;
        probes_.erase(it);
    }

    [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }

    /// The station database, the in-flight probes (with their timeout
    /// deadlines) and the re-alert clock, rows in address order.
    [[nodiscard]] telemetry::Json snapshot() const {
        telemetry::Json stations = telemetry::Json::array();
        for (const auto* entry : state_json::by_ip(db_)) {
            telemetry::Json row = telemetry::Json::object();
            row["ip"] = entry->first.to_string();
            row["mac"] = entry->second.to_string();
            stations.push_back(std::move(row));
        }
        telemetry::Json probes = telemetry::Json::array();
        for (const auto* entry : state_json::by_ip(probes_)) {
            telemetry::Json row = telemetry::Json::object();
            row["ip"] = entry->first.to_string();
            row["old_mac"] = entry->second.old_mac.to_string();
            row["new_mac"] = entry->second.new_mac.to_string();
            row["timeout_ns"] = entry->second.timeout_at.nanos();
            probes.push_back(std::move(row));
        }
        telemetry::Json alerted = telemetry::Json::array();
        for (const auto* entry : state_json::by_ip(last_alert_)) {
            telemetry::Json row = telemetry::Json::object();
            row["ip"] = entry->first.to_string();
            row["at_ns"] = entry->second.nanos();
            alerted.push_back(std::move(row));
        }
        telemetry::Json j = telemetry::Json::object();
        j["stations"] = std::move(stations);
        j["probes"] = std::move(probes);
        j["last_alerts"] = std::move(alerted);
        return j;
    }

    /// Replaces the state with a snapshot's and re-arms each in-flight
    /// probe's timeout at its original deadline on `scheduler`.
    void restore(sim::EventScheduler& scheduler, const telemetry::Json& state) {
        db_.clear();
        for (const auto& entry : probes_) scheduler.cancel(entry.second.timeout_event);
        probes_.clear();
        last_alert_.clear();
        for (const telemetry::Json* row : state_json::rows(state, "stations")) {
            const auto ip = state_json::ip(*row, "ip");
            const auto mac = state_json::mac(*row, "mac");
            if (ip && mac) db_[*ip] = *mac;
        }
        for (const telemetry::Json* row : state_json::rows(state, "probes")) {
            const auto ip = state_json::ip(*row, "ip");
            const auto old_mac = state_json::mac(*row, "old_mac");
            const auto new_mac = state_json::mac(*row, "new_mac");
            const auto timeout_at = state_json::time(*row, "timeout_ns");
            if (!ip || !old_mac || !new_mac || !timeout_at) continue;
            probes_[*ip] = Probe{*old_mac, *new_mac, *timeout_at};
            arm_timeout(scheduler, *ip);
        }
        for (const telemetry::Json* row : state_json::rows(state, "last_alerts")) {
            const auto ip = state_json::ip(*row, "ip");
            const auto at = state_json::time(*row, "at_ns");
            if (ip && at) last_alert_[*ip] = *at;
        }
    }

private:
    struct Probe {
        wire::MacAddress old_mac;
        wire::MacAddress new_mac;
        common::SimTime timeout_at;
        sim::EventId timeout_event = 0;
    };

    void arm_timeout(sim::EventScheduler& scheduler, wire::Ipv4Address ip) {
        Probe& p = probes_.at(ip);
        p.timeout_event = scheduler.schedule_at(
            p.timeout_at, [self = shared_from_this(), ip] { self->probe_timeout(ip); });
    }

    ActiveProbeScheme::Options options_;
    std::function<void(Alert)> raise_;
    std::unordered_map<wire::Ipv4Address, wire::MacAddress> db_;
    std::unordered_map<wire::Ipv4Address, Probe> probes_;
    std::unordered_map<wire::Ipv4Address, common::SimTime> last_alert_;
    std::uint64_t probes_sent_ = 0;
};

SchemeTraits ActiveProbeScheme::traits() const {
    SchemeTraits t;
    t.name = "active-probe";
    t.vantage = Vantage::kMonitor;
    t.detects = true;
    t.prevents_poisoning = false;
    t.requires_infrastructure = true;
    t.handles_dynamic_ips = true;  // probe distinguishes rebind from attack
    t.deployment_cost = CostBand::kLow;
    t.runtime_cost = CostBand::kLow;  // one probe per conflicting claim
    t.notes = "XArp-class verification; needs the old station online to confirm";
    return t;
}

void ActiveProbeScheme::attach_monitor(MonitorNode& monitor) {
    prober_ = std::make_shared<Prober>(options_, [this](Alert a) { alert(std::move(a)); });
    monitor.add_observer(prober_);
}

telemetry::Json ActiveProbeScheme::snapshot_state() const {
    return prober_ ? prober_->snapshot() : telemetry::Json::object();
}

void ActiveProbeScheme::restore_state(const telemetry::Json& state) {
    if (prober_ && ctx_.net != nullptr) prober_->restore(ctx_.net->scheduler(), state);
}

}  // namespace arpsec::detect
