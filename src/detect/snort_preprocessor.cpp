#include "detect/snort_preprocessor.hpp"

#include <unordered_map>

namespace arpsec::detect {

class SnortPreprocessorScheme::Preprocessor final : public TrafficObserver {
public:
    Preprocessor(Options options, std::unordered_map<wire::Ipv4Address, wire::MacAddress> table,
                 std::function<void(Alert)> raise)
        : options_(options), table_(std::move(table)), raise_(std::move(raise)) {}

    void on_observed(MonitorNode&, common::SimTime, const wire::FrameView& view,
                     const wire::ArpPacket* arp) override {
        if (arp == nullptr) return;

        if (options_.check_header_consistency && arp->sender_mac != view.src()) {
            Alert a;
            a.kind = AlertKind::kInconsistentHeader;
            a.ip = arp->sender_ip;
            a.claimed_mac = arp->sender_mac;
            a.detail = "ethernet source " + view.src().to_string() + " != ARP sender";
            raise_(std::move(a));
        }

        if (options_.check_unicast_requests && arp->op == wire::ArpOp::kRequest &&
            view.dst().is_unicast() && !arp->is_gratuitous()) {
            Alert a;
            a.kind = AlertKind::kUnicastRequest;
            a.ip = arp->target_ip;
            a.claimed_mac = arp->sender_mac;
            a.detail = "unicast ARP request (spoofing-tool signature)";
            raise_(std::move(a));
        }

        if (options_.check_table && !arp->sender_ip.is_any()) {
            auto it = table_.find(arp->sender_ip);
            if (it != table_.end() && it->second != arp->sender_mac) {
                Alert a;
                a.kind = AlertKind::kBindingViolation;
                a.ip = arp->sender_ip;
                a.claimed_mac = arp->sender_mac;
                a.previous_mac = it->second;
                a.detail = "claim contradicts configured table";
                raise_(std::move(a));
            }
        }
    }

private:
    Options options_;
    std::unordered_map<wire::Ipv4Address, wire::MacAddress> table_;
    std::function<void(Alert)> raise_;
};

SchemeTraits SnortPreprocessorScheme::traits() const {
    SchemeTraits t;
    t.name = "snort-arpspoof";
    t.vantage = Vantage::kMonitor;
    t.detects = true;
    t.prevents_poisoning = false;
    t.requires_infrastructure = true;  // IDS sensor on a SPAN port
    t.handles_dynamic_ips = false;     // table configured by hand, goes stale
    t.deployment_cost = CostBand::kMedium;  // table must be maintained
    t.runtime_cost = CostBand::kNone;
    t.notes = "signature rules: table mismatch, header inconsistency, unicast requests";
    return t;
}

void SnortPreprocessorScheme::attach_monitor(MonitorNode& monitor) {
    std::unordered_map<wire::Ipv4Address, wire::MacAddress> table;
    for (const HostRecord& rec : ctx_.directory) table[rec.ip] = rec.mac;
    monitor.add_observer(std::make_shared<Preprocessor>(
        options_, std::move(table), [this](Alert a) { alert(std::move(a)); }));
}

}  // namespace arpsec::detect
