#include "detect/gossip.hpp"

#include <map>
#include <memory>

#include "wire/buffer.hpp"

namespace arpsec::detect {

using common::Duration;
using wire::Bytes;
using wire::ByteReader;
using wire::ByteWriter;
using wire::Ipv4Address;
using wire::MacAddress;

namespace {

constexpr std::uint32_t kDigestMagic = 0x41474F53;  // "AGOS"
constexpr std::size_t kMaxDigestEntries = 64;

Bytes encode_digest(const std::vector<std::pair<Ipv4Address, MacAddress>>& entries) {
    Bytes out;
    ByteWriter w{out};
    w.u32(kDigestMagic);
    w.u16(static_cast<std::uint16_t>(entries.size()));
    for (const auto& [ip, mac] : entries) {
        w.ipv4(ip);
        w.mac(mac);
    }
    return out;
}

std::vector<std::pair<Ipv4Address, MacAddress>> decode_digest(const Bytes& data) {
    ByteReader r{data};
    if (r.u32() != kDigestMagic) return {};
    const std::uint16_t n = r.u16();
    if (n > kMaxDigestEntries) return {};
    std::vector<std::pair<Ipv4Address, MacAddress>> out;
    out.reserve(n);
    for (std::uint16_t i = 0; i < n; ++i) {
        const Ipv4Address ip = r.ipv4();
        const MacAddress mac = r.mac();
        if (!r.ok()) return {};
        out.emplace_back(ip, mac);
    }
    return out;
}

}  // namespace

/// Per-host gossip agent: periodically publishes the cache digest and
/// cross-checks digests received from peers.
class GossipScheme::Agent {
public:
    Agent(GossipScheme& scheme, host::Host& host, GossipScheme::Options options)
        : scheme_(scheme), host_(host), options_(options) {
        host_.bind_udp(options_.udp_port,
                       [this](host::Host&, const host::UdpRxInfo& info, const Bytes& data) {
                           on_digest(info, data);
                       });
        host_.every(options_.gossip_period, [this] { publish(); });
    }

private:
    void publish() {
        if (!host_.has_ip()) return;
        std::vector<std::pair<Ipv4Address, MacAddress>> entries;
        for (const auto& [ip, entry] : host_.arp_cache().snapshot()) {
            if (entries.size() >= kMaxDigestEntries) break;
            entries.emplace_back(ip, entry.mac);
        }
        if (entries.empty()) return;
        host_.send_udp(Ipv4Address::broadcast(), options_.udp_port, options_.udp_port,
                       encode_digest(entries));
    }

    void on_digest(const host::UdpRxInfo& info, const Bytes& data) {
        (void)info;
        if (!host_.has_ip()) return;
        const auto now = host_.network().now();
        for (const auto& [ip, peer_mac] : decode_digest(data)) {
            if (ip == host_.ip()) {
                // A peer maps *our* IP to a foreign MAC: someone is
                // impersonating us (or the peer is poisoned about us).
                if (peer_mac != host_.mac()) {
                    raise(ip, peer_mac, host_.mac(), now,
                          "peer maps our address to a foreign MAC");
                }
                continue;
            }
            const auto mine = host_.arp_cache().peek(ip);
            if (!mine || mine->mac == peer_mac) continue;
            raise(ip, peer_mac, mine->mac, now, "cache disagreement with peer digest");
            if (options_.evict_on_conflict && mine->state != arp::EntryState::kStatic) {
                // Self-heal: drop the contested entry and re-resolve on
                // next use (the legitimate owner will answer).
                host_.arp_cache().evict(ip);
            }
        }
    }

    void raise(Ipv4Address ip, MacAddress claimed, MacAddress prev, common::SimTime now,
               const char* why) {
        const std::uint64_t key = ip.value() ^ (claimed.to_u64() << 8);
        if (auto it = last_alert_.find(key);
            it != last_alert_.end() && now - it->second < options_.realert_backoff) {
            return;
        }
        last_alert_[key] = now;
        Alert a;
        a.kind = AlertKind::kSpoofSuspected;
        a.ip = ip;
        a.claimed_mac = claimed;
        a.previous_mac = prev;
        a.detail = std::string(why) + " (on " + host_.name() + ")";
        scheme_.alert(std::move(a));
    }

    GossipScheme& scheme_;
    host::Host& host_;
    GossipScheme::Options options_;
    std::map<std::uint64_t, common::SimTime> last_alert_;
};

GossipScheme::GossipScheme() = default;
GossipScheme::GossipScheme(Options options) : options_(options) {}
GossipScheme::~GossipScheme() = default;

SchemeTraits GossipScheme::traits() const {
    SchemeTraits t;
    t.name = "gossip";
    t.vantage = Vantage::kHostCooperative;
    t.detects = true;
    t.prevents_poisoning = false;  // self-healing eviction mitigates, not prevents
    t.requires_per_host_deploy = true;
    t.handles_dynamic_ips = false;  // transient disagreement during rebinds
    t.deployment_cost = CostBand::kMedium;
    t.runtime_cost = CostBand::kLow;  // one broadcast digest per host per period
    t.best_effort = true;  // needs a digest round and a peer that knows the truth
    t.notes = "peers cross-check cache digests; a poisoned victim's divergent "
              "view is visible to the whole LAN; gossip itself unauthenticated";
    return t;
}

void GossipScheme::protect_host(host::Host& host) {
    agents_.push_back(std::make_unique<Agent>(*this, host, options_));
}

}  // namespace arpsec::detect
