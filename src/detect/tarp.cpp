#include "detect/tarp.hpp"

#include <set>

namespace arpsec::detect {

using common::Duration;
using crypto::KeyPair;
using crypto::PublicKey;
using crypto::Signature;
using wire::ArpPacket;
using wire::Bytes;
using wire::ByteReader;
using wire::ByteWriter;

wire::Bytes TarpScheme::Ticket::signed_region() const {
    Bytes msg;
    ByteWriter w{msg};
    w.bytes(Bytes{'t', 'a', 'r', 'p', '.', 'v', '1'});
    w.ipv4(ip);
    w.mac(mac);
    w.u64(expiry_ns);
    return msg;
}

wire::Bytes TarpScheme::Ticket::serialize() const {
    Bytes out;
    ByteWriter w{out};
    w.u8(kAuthTag);
    w.ipv4(ip);
    w.mac(mac);
    w.u64(expiry_ns);
    w.bytes(sig.serialize());
    return out;
}

std::optional<TarpScheme::Ticket> TarpScheme::Ticket::parse(
    std::span<const std::uint8_t> data) {
    ByteReader r{data};
    if (r.u8() != kAuthTag) return std::nullopt;
    Ticket t;
    t.ip = r.ipv4();
    t.mac = r.mac();
    t.expiry_ns = r.u64();
    t.sig = Signature::deserialize(r.bytes(Signature::kWireSize));
    if (!r.ok()) return std::nullopt;
    return t;
}

TarpScheme::Ticket TarpScheme::issue_ticket(wire::Ipv4Address ip, wire::MacAddress mac,
                                            common::SimTime now) const {
    Ticket t;
    t.ip = ip;
    t.mac = mac;
    t.expiry_ns = static_cast<std::uint64_t>((now + options_.ticket_lifetime).nanos());
    t.sig = lta_key_->sign(t.signed_region());
    return t;
}

// ---------------------------------------------------------------------------
// Per-host hook
// ---------------------------------------------------------------------------

class TarpScheme::Hook final : public host::ArpHook,
                               public std::enable_shared_from_this<Hook> {
public:
    Hook(TarpScheme& scheme, Ticket own_ticket)
        : scheme_(scheme), own_ticket_(std::move(own_ticket)) {}

    [[nodiscard]] const char* hook_name() const override { return "tarp"; }

    /// Installs a freshly issued ticket (LTA reissue on address change).
    void set_ticket(Ticket t) { own_ticket_ = std::move(t); }

    Duration on_arp_transmit(host::Host& host, ArpPacket& pkt) override {
        // Renew at the LTA when the ticket has expired (stations hold a
        // standing relationship with the LTA; the issuance cost is a sign).
        const auto now = host.network().now();
        if (host.has_ip() &&
            static_cast<std::int64_t>(own_ticket_.expiry_ns) <= now.nanos()) {
            own_ticket_ = scheme_.issue_ticket(host.ip(), host.mac(), now);
            if (scheme_.ctx_.ops != nullptr) ++scheme_.ctx_.ops->signs;
        }
        pkt.auth = own_ticket_.serialize();
        return Duration::zero();  // tickets are pre-signed: no runtime signing
    }

    Verdict on_arp_receive(host::Host& host, const ArpPacket& pkt,
                           const host::ArpRxInfo& info) override {
        if (pkt.auth.empty() || pkt.auth[0] != kAuthTag) {
            if (!scheme_.options_.strict) return Verdict::kAccept;
            Alert a;
            a.kind = AlertKind::kUnsignedArp;
            a.ip = pkt.sender_ip;
            a.claimed_mac = pkt.sender_mac;
            a.detail = "ticketless ARP dropped on " + host.name();
            scheme_.alert(std::move(a));
            return Verdict::kDrop;
        }
        const auto ticket = Ticket::parse(pkt.auth);
        if (!ticket) return Verdict::kDrop;

        // The ticket must attest exactly the binding the packet claims.
        if (ticket->ip != pkt.sender_ip || ticket->mac != pkt.sender_mac) {
            Alert a;
            a.kind = AlertKind::kBindingViolation;
            a.ip = pkt.sender_ip;
            a.claimed_mac = pkt.sender_mac;
            a.previous_mac = ticket->mac;
            a.detail = "ticket does not cover claimed binding";
            scheme_.alert(std::move(a));
            return Verdict::kDrop;
        }
        const auto now = host.network().now();
        if (static_cast<std::int64_t>(ticket->expiry_ns) < now.nanos()) {
            Alert a;
            a.kind = AlertKind::kBindingViolation;
            a.ip = pkt.sender_ip;
            a.claimed_mac = pkt.sender_mac;
            a.detail = "expired ticket";
            scheme_.alert(std::move(a));
            return Verdict::kDrop;
        }

        if (scheme_.options_.cache_verified_tickets) {
            const std::uint64_t fp = fingerprint(*ticket);
            if (verified_.count(fp) != 0) {
                // Already cryptographically verified: accept synchronously.
                finish(host, pkt, info);
                return Verdict::kDefer;
            }
        }

        auto self = shared_from_this();
        host::Host* h = &host;
        const ArpPacket copy = pkt;
        const host::ArpRxInfo info_copy = info;
        const Ticket tk = *ticket;
        host.network().scheduler().schedule_after(scheme_.ctx_.cost.verify,
                                                  [self, h, copy, info_copy, tk] {
            if (self->scheme_.ctx_.ops != nullptr) ++self->scheme_.ctx_.ops->verifies;
            if (!self->scheme_.lta_key_->public_key().verify(tk.signed_region(), tk.sig)) {
                Alert a;
                a.kind = AlertKind::kBindingViolation;
                a.ip = copy.sender_ip;
                a.claimed_mac = copy.sender_mac;
                a.detail = "invalid LTA signature on ticket";
                self->scheme_.alert(std::move(a));
                return;  // drop
            }
            if (self->scheme_.options_.cache_verified_tickets) {
                self->verified_.insert(self->fingerprint(tk));
            }
            self->finish(*h, copy, info_copy);
        });
        return Verdict::kDefer;
    }

private:
    void finish(host::Host& host, const ArpPacket& pkt, const host::ArpRxInfo& info) {
        // Ticket verified; normal cache-policy processing resumes.
        host.resume_arp_processing(pkt, info, this);
    }

    [[nodiscard]] std::uint64_t fingerprint(const Ticket& t) const {
        return t.ip.value() ^ (t.mac.to_u64() << 8) ^ t.expiry_ns ^ t.sig.e;
    }

    TarpScheme& scheme_;
    Ticket own_ticket_;
    std::set<std::uint64_t> verified_;
};

// ---------------------------------------------------------------------------
// Scheme
// ---------------------------------------------------------------------------

SchemeTraits TarpScheme::traits() const {
    SchemeTraits t;
    t.name = "tarp";
    t.vantage = Vantage::kHostServer;
    t.detects = true;
    t.prevents_poisoning = true;
    t.requires_protocol_change = true;
    t.requires_infrastructure = true;  // the LTA (often co-located with DHCP)
    t.requires_per_host_deploy = true;
    t.uses_cryptography = true;
    t.handles_dynamic_ips = true;  // LTA reissues tickets on lease changes
    t.deployment_cost = CostBand::kHigh;
    t.runtime_cost = CostBand::kMedium;  // one verify per new ticket, cached after
    t.notes = "signed (IP,MAC) tickets; replayable until expiry (MAC-spoof window)";
    return t;
}

void TarpScheme::deploy(const DeploymentContext& ctx) {
    Scheme::deploy(ctx);
    lta_key_ = std::make_unique<KeyPair>(KeyPair::derive(0x17A0));
    const auto now = ctx_.net != nullptr ? ctx_.net->now() : common::SimTime::zero();
    for (const HostRecord& rec : ctx_.directory) {
        tickets_by_mac_[rec.mac.to_u64()] = issue_ticket(rec.ip, rec.mac, now);
        if (ctx_.ops != nullptr) ++ctx_.ops->signs;  // one-time issuance cost
    }
}

void TarpScheme::protect_host(host::Host& host) {
    Ticket initial;
    if (auto it = tickets_by_mac_.find(host.mac().to_u64()); it != tickets_by_mac_.end()) {
        initial = it->second;
    }
    auto hook = std::make_shared<Hook>(*this, initial);
    host.add_arp_hook(hook);
    // The LTA (co-located with address administration) issues a fresh
    // ticket whenever the station (re)acquires an address — covering DHCP
    // rebinds and NIC replacements.
    host::Host* h = &host;
    host.add_ip_listener([this, hook, h](wire::Ipv4Address ip) {
        Ticket fresh = issue_ticket(ip, h->mac(), h->network().now());
        if (ctx_.ops != nullptr) ++ctx_.ops->signs;
        tickets_by_mac_[h->mac().to_u64()] = fresh;
        hook->set_ticket(std::move(fresh));
    });
}

}  // namespace arpsec::detect
