#include "detect/middleware.hpp"

#include <set>
#include <unordered_map>
#include <vector>

namespace arpsec::detect {

using wire::ArpPacket;
using wire::Ipv4Address;
using wire::MacAddress;

class MiddlewareScheme::Hook final : public host::ArpHook,
                                     public std::enable_shared_from_this<Hook> {
public:
    Hook(MiddlewareScheme::Options options, std::function<void(Alert)> raise)
        : options_(options), raise_(std::move(raise)) {}

    [[nodiscard]] const char* hook_name() const override { return "middleware"; }

    Verdict on_arp_receive(host::Host& host, const ArpPacket& pkt,
                           const host::ArpRxInfo& info) override {
        if (pkt.sender_ip.is_any() || pkt.sender_mac.is_zero()) return Verdict::kAccept;
        const Ipv4Address ip = pkt.sender_ip;
        const MacAddress mac = pkt.sender_mac;

        // Claims for an IP under quarantine are folded into the open
        // verification instead of reaching the cache.
        if (auto it = quarantine_.find(ip); it != quarantine_.end()) {
            it->second.claims.insert(mac.to_u64());
            it->second.held.push_back(Held{pkt, info});
            return Verdict::kDefer;
        }

        if (auto v = verified_.find(ip); v != verified_.end() && v->second == mac) {
            return Verdict::kAccept;  // matches the admitted binding
        }

        // New or changed binding: quarantine and verify by asking the LAN.
        Quarantine q;
        q.claims.insert(mac.to_u64());
        q.held.push_back(Held{pkt, info});
        auto self = shared_from_this();
        host::Host* h = &host;
        q.window_event = host.network().scheduler().schedule_after(
            options_.verification_window, [self, h, ip] { self->window_closed(*h, ip); });
        quarantine_[ip] = std::move(q);

        host.send_arp(ArpPacket::request(host.mac(), host.ip(), ip), MacAddress::broadcast());
        return Verdict::kDefer;
    }

private:
    struct Held {
        ArpPacket pkt;
        host::ArpRxInfo info;
    };
    struct Quarantine {
        std::set<std::uint64_t> claims;
        std::vector<Held> held;
        sim::EventId window_event = 0;
    };

    void window_closed(host::Host& host, Ipv4Address ip) {
        auto it = quarantine_.find(ip);
        if (it == quarantine_.end()) return;
        Quarantine q = std::move(it->second);
        quarantine_.erase(it);

        if (q.claims.size() != 1) {
            Alert a;
            a.kind = AlertKind::kSpoofSuspected;
            a.ip = ip;
            // Report the first two distinct claimants.
            auto claim_it = q.claims.begin();
            a.previous_mac = mac_from(*claim_it++);
            a.claimed_mac = mac_from(*claim_it);
            a.detail = std::to_string(q.claims.size()) + " stations claimed one IP during "
                                                         "verification on " + host.name();
            raise_(std::move(a));
            return;  // all held packets dropped; nothing admitted
        }

        const MacAddress winner = mac_from(*q.claims.begin());
        verified_[ip] = winner;
        // Admit the held packets carrying the winning claim (at most one
        // resume per packet; later packets for the same binding now match
        // verified_ and flow through normally).
        for (const Held& h : q.held) {
            if (h.pkt.sender_mac == winner) {
                host.resume_arp_processing(h.pkt, h.info, this);
            }
        }
    }

    static MacAddress mac_from(std::uint64_t v) {
        return MacAddress{static_cast<std::uint8_t>(v >> 40), static_cast<std::uint8_t>(v >> 32),
                          static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
                          static_cast<std::uint8_t>(v >> 8),  static_cast<std::uint8_t>(v)};
    }

    MiddlewareScheme::Options options_;
    std::function<void(Alert)> raise_;
    std::unordered_map<Ipv4Address, MacAddress> verified_;
    std::unordered_map<Ipv4Address, Quarantine> quarantine_;
};

SchemeTraits MiddlewareScheme::traits() const {
    SchemeTraits t;
    t.name = "middleware";
    t.vantage = Vantage::kHost;
    t.detects = true;
    t.prevents_poisoning = true;
    t.requires_per_host_deploy = true;
    t.handles_dynamic_ips = true;
    t.deployment_cost = CostBand::kMedium;
    t.runtime_cost = CostBand::kLow;  // one broadcast verification per new binding
    t.best_effort = true;  // the vote is forfeit if the true owner's answer is lost
    t.notes = "quarantines new/changed bindings behind an active LAN vote; "
              "guards creations too, at the cost of first-contact latency";
    return t;
}

void MiddlewareScheme::protect_host(host::Host& host) {
    host.add_arp_hook(std::make_shared<Hook>(options_, [this](Alert a) {
        alert(std::move(a));
    }));
}

}  // namespace arpsec::detect
