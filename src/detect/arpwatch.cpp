#include "detect/arpwatch.hpp"

#include <unordered_map>
#include <utility>

#include "detect/state_json.hpp"

namespace arpsec::detect {

class ArpwatchScheme::Watcher final : public TrafficObserver {
public:
    Watcher(Options options, std::function<void(Alert)> raise)
        : options_(options), raise_(std::move(raise)) {}

    void on_observed(MonitorNode&, common::SimTime at, const wire::FrameView& view,
                     const wire::ArpPacket* arp) override {
        (void)view;
        if (arp == nullptr) return;
        if (arp->sender_ip.is_any() || arp->sender_mac.is_zero()) return;
        note(at, arp->sender_ip, arp->sender_mac);
    }

    void note(common::SimTime at, wire::Ipv4Address ip, wire::MacAddress mac) {
        auto it = db_.find(ip);
        if (it == db_.end()) {
            db_[ip] = Station{mac, {}, at, common::SimTime::zero()};
            return;  // "new station" is informational, not an alert
        }
        Station& st = it->second;
        if (st.mac == mac) {
            st.last_seen = at;
            return;
        }
        Alert a;
        a.ip = ip;
        a.claimed_mac = mac;
        a.previous_mac = st.mac;
        const bool flipflop =
            mac == st.previous_mac && at - st.last_change <= options_.flipflop_window;
        a.kind = flipflop ? AlertKind::kFlipFlop : AlertKind::kIpMacChange;
        a.detail = flipflop ? "station oscillating between two addresses"
                            : "station changed ethernet address";
        raise_(std::move(a));
        st.previous_mac = st.mac;
        st.mac = mac;
        st.last_change = at;
        st.last_seen = at;
    }

    [[nodiscard]] std::size_t stations() const { return db_.size(); }

    [[nodiscard]] telemetry::Json snapshot() const {
        telemetry::Json stations = telemetry::Json::array();
        for (const auto* entry : state_json::by_ip(db_)) {
            const Station& st = entry->second;
            telemetry::Json row = telemetry::Json::object();
            row["ip"] = entry->first.to_string();
            row["mac"] = st.mac.to_string();
            row["previous_mac"] = st.previous_mac.to_string();
            row["last_seen_ns"] = st.last_seen.nanos();
            row["last_change_ns"] = st.last_change.nanos();
            stations.push_back(std::move(row));
        }
        telemetry::Json j = telemetry::Json::object();
        j["stations"] = std::move(stations);
        return j;
    }

    void restore(const telemetry::Json& state) {
        db_.clear();
        for (const telemetry::Json* row : state_json::rows(state, "stations")) {
            const auto ip = state_json::ip(*row, "ip");
            const auto mac = state_json::mac(*row, "mac");
            if (!ip || !mac) continue;
            Station st;
            st.mac = *mac;
            st.previous_mac = state_json::mac(*row, "previous_mac").value_or(wire::MacAddress{});
            st.last_seen = state_json::time(*row, "last_seen_ns").value_or(common::SimTime{});
            st.last_change =
                state_json::time(*row, "last_change_ns").value_or(common::SimTime{});
            db_[*ip] = st;
        }
    }

private:
    struct Station {
        wire::MacAddress mac;
        wire::MacAddress previous_mac;
        common::SimTime last_seen;
        common::SimTime last_change;
    };

    Options options_;
    std::function<void(Alert)> raise_;
    std::unordered_map<wire::Ipv4Address, Station> db_;
};

SchemeTraits ArpwatchScheme::traits() const {
    SchemeTraits t;
    t.name = "arpwatch";
    t.vantage = Vantage::kMonitor;
    t.detects = true;
    t.prevents_poisoning = false;
    t.requires_infrastructure = true;  // a monitoring station on a SPAN port
    t.handles_dynamic_ips = false;     // DHCP reassignment == "changed address"
    t.deployment_cost = CostBand::kLow;
    t.runtime_cost = CostBand::kNone;
    t.notes = "passive IP/MAC database; alerts by email; false alarms under DHCP churn";
    return t;
}

void ArpwatchScheme::attach_monitor(MonitorNode& monitor) {
    watcher_ = std::make_shared<Watcher>(options_, [this](Alert a) { alert(std::move(a)); });
    monitor.add_observer(watcher_);
}

telemetry::Json ArpwatchScheme::snapshot_state() const {
    return watcher_ ? watcher_->snapshot() : telemetry::Json::object();
}

void ArpwatchScheme::restore_state(const telemetry::Json& state) {
    if (watcher_) watcher_->restore(state);
}

std::size_t ArpwatchScheme::stations() const { return watcher_ ? watcher_->stations() : 0; }

}  // namespace arpsec::detect
