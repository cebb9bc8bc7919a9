#include "detect/antidote.hpp"

#include <unordered_map>

namespace arpsec::detect {
namespace {

class AntidoteHook final : public host::ArpHook,
                           public std::enable_shared_from_this<AntidoteHook> {
public:
    AntidoteHook(AntidoteScheme::Options options, std::function<void(Alert)> raise)
        : options_(options), raise_(std::move(raise)) {}

    [[nodiscard]] const char* hook_name() const override { return "antidote"; }

    Verdict on_arp_receive(host::Host& host, const wire::ArpPacket& pkt,
                           const host::ArpRxInfo& info) override {
        if (pkt.sender_ip.is_any() || pkt.sender_mac.is_zero()) return Verdict::kAccept;

        // A reply from the probed (old) MAC confirms the old station lives:
        // reject the held change and flag the challenger.
        if (auto it = pending_.find(pkt.sender_ip); it != pending_.end()) {
            if (pkt.sender_mac == it->second.old_mac) {
                host.network().scheduler().cancel(it->second.timeout_event);
                Alert a;
                a.kind = AlertKind::kSpoofSuspected;
                a.ip = pkt.sender_ip;
                a.claimed_mac = it->second.held.sender_mac;
                a.previous_mac = it->second.old_mac;
                a.detail = "old station answered verification probe on " + host.name();
                raise_(std::move(a));
                pending_.erase(it);
                return Verdict::kAccept;  // the old station's reply refreshes the entry
            }
            // Another claim for an IP under verification: hold judgement by
            // dropping it; the persistent attacker will resend.
            return Verdict::kDrop;
        }

        const auto existing = host.arp_cache().peek(pkt.sender_ip);
        if (!existing) return Verdict::kAccept;  // creations are not guarded
        const auto age = host.network().now() - existing->updated_at;
        const bool live = existing->state == arp::EntryState::kStatic ||
                          age <= host.arp_cache().policy().entry_ttl;
        if (!live || existing->mac == pkt.sender_mac) return Verdict::kAccept;

        // Conflicting change: hold the packet and probe the old MAC.
        Pending p;
        p.held = pkt;
        p.held_info = info;
        p.old_mac = existing->mac;
        const wire::Ipv4Address ip = pkt.sender_ip;
        auto self = shared_from_this();
        p.timeout_event = host.network().scheduler().schedule_after(
            options_.probe_timeout, [self, &host, ip] { self->probe_timed_out(host, ip); });
        pending_[ip] = std::move(p);

        host.send_arp(wire::ArpPacket::request(host.mac(), host.ip(), ip), existing->mac);
        return Verdict::kDefer;
    }

private:
    struct Pending {
        wire::ArpPacket held;
        host::ArpRxInfo held_info;
        wire::MacAddress old_mac;
        sim::EventId timeout_event = 0;
    };

    void probe_timed_out(host::Host& host, wire::Ipv4Address ip) {
        auto it = pending_.find(ip);
        if (it == pending_.end()) return;
        // No answer from the old MAC: treat as a legitimate rebind and let
        // the held packet continue down the pipeline.
        const Pending p = std::move(it->second);
        pending_.erase(it);
        host.resume_arp_processing(p.held, p.held_info, this);
    }

    AntidoteScheme::Options options_;
    std::function<void(Alert)> raise_;
    std::unordered_map<wire::Ipv4Address, Pending> pending_;
};

}  // namespace

SchemeTraits AntidoteScheme::traits() const {
    SchemeTraits t;
    t.name = "antidote";
    t.vantage = Vantage::kHost;
    t.detects = true;
    t.prevents_poisoning = true;  // overwrite-based poisoning, when the victim host is up
    t.requires_per_host_deploy = true;
    t.handles_dynamic_ips = true;  // legit rebinds pass after the probe times out
    t.deployment_cost = CostBand::kMedium;
    t.runtime_cost = CostBand::kLow;  // one probe per conflicting update
    t.best_effort = true;  // the probe exchange itself rides the attacked LAN
    t.notes = "probe-verified overwrites; defeated if the old station is offline "
              "or the attacker answers the probe";
    return t;
}

void AntidoteScheme::protect_host(host::Host& host) {
    host.add_arp_hook(std::make_shared<AntidoteHook>(options_, [this](Alert a) {
        alert(std::move(a));
    }));
}

}  // namespace arpsec::detect
