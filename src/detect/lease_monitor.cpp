#include "detect/lease_monitor.hpp"

#include <map>

#include "detect/state_json.hpp"
#include "wire/dhcp_message.hpp"
#include "wire/ipv4_packet.hpp"
#include "wire/udp_datagram.hpp"

namespace arpsec::detect {

using common::Duration;
using common::SimTime;
using wire::Ipv4Address;
using wire::MacAddress;

class LeaseMonitorScheme::Observer final : public TrafficObserver {
public:
    Observer(LeaseMonitorScheme::Options options, std::function<void(Alert)> raise)
        : options_(options), raise_(std::move(raise)) {}

    void on_observed(MonitorNode&, SimTime at, const wire::FrameView& view,
                     const wire::ArpPacket* arp) override {
        if (arp != nullptr) {
            check_arp(at, *arp);
            return;
        }
        // Memoized in the shared buffer: at most one IPv4 parse per frame
        // process-wide, no matter how many schemes snoop the traffic.
        const wire::Ipv4Packet* ip = view.ipv4();
        if (ip == nullptr) return;
        if (ip->protocol == wire::IpProto::kUdp && is_dhcp_port(ip->payload)) {
            if (auto udp = wire::UdpDatagram::parse(ip->payload); udp.ok()) {
                if (auto dhcp = wire::DhcpMessage::parse(udp->payload); dhcp.ok()) {
                    snoop_dhcp(at, dhcp.value());
                    return;
                }
            }
        }
        if (options_.check_ip_traffic && !ip->src.is_any()) {
            check_source(at, ip->src, view.src());
        }
    }

    [[nodiscard]] std::size_t lease_count() const { return leases_.size(); }

    /// The lease table and the re-alert clock, rows in key order.
    [[nodiscard]] telemetry::Json snapshot() const {
        telemetry::Json leases = telemetry::Json::array();
        for (const auto* entry : state_json::by_ip(leases_)) {
            telemetry::Json row = telemetry::Json::object();
            row["ip"] = entry->first.to_string();
            row["mac"] = entry->second.mac.to_string();
            row["expires_ns"] = entry->second.expires.nanos();
            leases.push_back(std::move(row));
        }
        telemetry::Json alerted = telemetry::Json::array();
        for (const auto& [key, at] : last_alert_) {
            telemetry::Json row = telemetry::Json::object();
            row["key"] = key;
            row["at_ns"] = at.nanos();
            alerted.push_back(std::move(row));
        }
        telemetry::Json j = telemetry::Json::object();
        j["leases"] = std::move(leases);
        j["last_alerts"] = std::move(alerted);
        return j;
    }

    void restore(const telemetry::Json& state) {
        leases_.clear();
        last_alert_.clear();
        for (const telemetry::Json* row : state_json::rows(state, "leases")) {
            const auto ip = state_json::ip(*row, "ip");
            const auto mac = state_json::mac(*row, "mac");
            const auto expires = state_json::time(*row, "expires_ns");
            if (ip && mac && expires) leases_[*ip] = Lease{*mac, *expires};
        }
        for (const telemetry::Json* row : state_json::rows(state, "last_alerts")) {
            const telemetry::Json* key = row->find("key");
            const auto at = state_json::time(*row, "at_ns");
            if (key != nullptr && key->is_int() && at) {
                last_alert_[static_cast<std::uint64_t>(key->as_int())] = *at;
            }
        }
    }

private:
    /// Cheap dst-port peek before the allocating UDP decode: only DHCP
    /// traffic is worth a full parse, and on a busy segment almost no
    /// datagram is DHCP. Non-DHCP (and unparsable) UDP falls through to
    /// the source check either way, so this only skips wasted work.
    [[nodiscard]] static bool is_dhcp_port(const wire::Bytes& udp_bytes) {
        if (udp_bytes.size() < wire::UdpDatagram::kHeaderSize) return false;
        const auto dst_port =
            static_cast<std::uint16_t>((udp_bytes[2] << 8) | udp_bytes[3]);
        return dst_port == wire::DhcpMessage::kClientPort ||
               dst_port == wire::DhcpMessage::kServerPort;
    }

    struct Lease {
        MacAddress mac;
        SimTime expires;
    };

    void snoop_dhcp(SimTime at, const wire::DhcpMessage& m) {
        if (!m.is_reply()) {
            if (m.message_type == wire::DhcpMessageType::kRelease && !m.ciaddr.is_any()) {
                leases_.erase(m.ciaddr);
            }
            return;
        }
        if (m.message_type != wire::DhcpMessageType::kAck || m.yiaddr.is_any()) return;
        const auto lease_s = m.lease_seconds.value_or(3600);
        leases_[m.yiaddr] =
            Lease{m.chaddr, at + Duration::seconds(static_cast<std::int64_t>(lease_s))};
    }

    void check_arp(SimTime at, const wire::ArpPacket& arp) {
        if (arp.sender_ip.is_any() || arp.sender_mac.is_zero()) return;
        check_source(at, arp.sender_ip, arp.sender_mac);
    }

    void check_source(SimTime at, Ipv4Address ip, MacAddress mac) {
        auto it = leases_.find(ip);
        if (it == leases_.end()) return;  // not lease-managed: out of scope
        if (it->second.expires < at) {
            leases_.erase(it);
            return;
        }
        if (it->second.mac == mac) return;
        const std::uint64_t key = ip.value() ^ (mac.to_u64() << 8);
        if (auto la = last_alert_.find(key);
            la != last_alert_.end() && at - la->second < options_.realert_backoff) {
            return;
        }
        last_alert_[key] = at;
        Alert a;
        a.kind = AlertKind::kBindingViolation;
        a.ip = ip;
        a.claimed_mac = mac;
        a.previous_mac = it->second.mac;
        a.detail = "claim contradicts snooped DHCP lease";
        raise_(std::move(a));
    }

    LeaseMonitorScheme::Options options_;
    std::function<void(Alert)> raise_;
    std::unordered_map<Ipv4Address, Lease> leases_;
    std::map<std::uint64_t, SimTime> last_alert_;
};

SchemeTraits LeaseMonitorScheme::traits() const {
    SchemeTraits t;
    t.name = "lease-monitor";
    t.vantage = Vantage::kMonitor;
    t.detects = true;
    t.prevents_poisoning = false;  // observes the mirror: no enforcement
    t.requires_infrastructure = true;  // monitoring station on a SPAN port
    t.depends_on_dhcp = true;
    t.handles_dynamic_ips = true;  // the lease table *is* the churn
    t.deployment_cost = CostBand::kLow;
    t.runtime_cost = CostBand::kNone;
    t.notes = "software DAI: lease-validated detection without managed switches; "
              "blind to statically addressed stations";
    return t;
}

void LeaseMonitorScheme::attach_monitor(MonitorNode& monitor) {
    observer_ = std::make_shared<Observer>(options_, [this](Alert a) { alert(std::move(a)); });
    monitor.add_observer(observer_);
}

telemetry::Json LeaseMonitorScheme::snapshot_state() const {
    return observer_ ? observer_->snapshot() : telemetry::Json::object();
}

void LeaseMonitorScheme::restore_state(const telemetry::Json& state) {
    if (observer_) observer_->restore(state);
}

std::size_t LeaseMonitorScheme::lease_count() const {
    return observer_ ? observer_->lease_count() : 0;
}

}  // namespace arpsec::detect
