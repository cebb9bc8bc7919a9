#include "detect/anticap.hpp"

namespace arpsec::detect {
namespace {

class AnticapHook final : public host::ArpHook {
public:
    explicit AnticapHook(AnticapScheme& scheme, std::function<void(Alert)> raise)
        : scheme_(scheme), raise_(std::move(raise)) {}

    [[nodiscard]] const char* hook_name() const override { return "anticap"; }

    Verdict on_arp_receive(host::Host& host, const wire::ArpPacket& pkt,
                           const host::ArpRxInfo& info) override {
        (void)info;
        if (pkt.sender_ip.is_any() || pkt.sender_mac.is_zero()) return Verdict::kAccept;
        const auto existing = host.arp_cache().peek(pkt.sender_ip);
        if (!existing) return Verdict::kAccept;
        // Honour entry TTL: an expired entry no longer constrains updates.
        const auto age = host.network().now() - existing->updated_at;
        const bool live = existing->state == arp::EntryState::kStatic ||
                          age <= host.arp_cache().policy().entry_ttl;
        if (!live) return Verdict::kAccept;
        if (existing->mac == pkt.sender_mac) return Verdict::kAccept;

        Alert a;
        a.kind = AlertKind::kSpoofSuspected;
        a.ip = pkt.sender_ip;
        a.claimed_mac = pkt.sender_mac;
        a.previous_mac = existing->mac;
        a.detail = "rejected cache overwrite on " + host.name();
        raise_(std::move(a));
        return Verdict::kDrop;
    }

private:
    AnticapScheme& scheme_;
    std::function<void(Alert)> raise_;
};

}  // namespace

SchemeTraits AnticapScheme::traits() const {
    SchemeTraits t;
    t.name = "anticap";
    t.vantage = Vantage::kHost;
    t.detects = true;  // logs rejected overwrites
    t.prevents_poisoning = true;  // overwrite-based poisoning only
    t.requires_per_host_deploy = true;
    t.handles_dynamic_ips = false;  // legit rebinds rejected until TTL expiry
    t.deployment_cost = CostBand::kMedium;  // kernel patch on every host
    t.runtime_cost = CostBand::kNone;
    t.notes = "stops overwrites, not creations; freezes legitimate rebinding";
    return t;
}

void AnticapScheme::protect_host(host::Host& host) {
    host.add_arp_hook(std::make_shared<AnticapHook>(*this, [this](Alert a) {
        alert(std::move(a));
    }));
}

}  // namespace arpsec::detect
