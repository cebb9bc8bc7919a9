#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "host/ledger.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "wire/arp_packet.hpp"
#include "wire/ipv4_packet.hpp"

namespace arpsec::attack {

/// Which ARP message shape the poisoner uses. These are the classic attack
/// vectors the paper's taxonomy covers; their effectiveness differs per OS
/// cache policy (experiment T1).
enum class PoisonVector {
    kUnsolicitedReply,   // forged reply out of the blue
    kForgedRequest,      // forged request (poisons via the sender fields)
    kGratuitousRequest,  // gratuitous announcement, request form
    kGratuitousReply,    // gratuitous announcement, reply form
    kReplyRace,          // wait for the victim's request, answer first
};

[[nodiscard]] std::string to_string(PoisonVector v);

/// One poisoning campaign: make `victim` believe `spoofed_ip` is at
/// `claimed_mac`.
struct PoisonCampaign {
    wire::Ipv4Address victim_ip;
    wire::MacAddress victim_mac;  // where to address the forged frames
    wire::Ipv4Address spoofed_ip;
    wire::MacAddress claimed_mac;  // attacker MAC for MITM, garbage for DoS
    PoisonVector vector = PoisonVector::kUnsolicitedReply;
    /// Re-poison interval; zero means a single shot. Persistent campaigns
    /// keep the cache poisoned past entry TTLs and across legit refreshes.
    common::Duration period = common::Duration::zero();
};

struct AttackerStats {
    std::uint64_t poison_frames_sent = 0;
    std::uint64_t race_replies_sent = 0;
    std::uint64_t frames_intercepted = 0;
    std::uint64_t frames_relayed = 0;
    std::uint64_t flood_frames_sent = 0;
    std::uint64_t clone_frames_sent = 0;
    std::uint64_t dhcp_discovers_sent = 0;
    std::uint64_t tcp_rsts_injected = 0;
    std::uint64_t cache_flood_sent = 0;
    /// Unicast frames for *other* stations that reached our promiscuous
    /// NIC — the loot of fail-open flooding and MAC cloning.
    std::uint64_t frames_sniffed = 0;
};

/// The adversary: crafts raw frames, intercepts and relays traffic. It does
/// not run the cooperative host stack — it lies at will. The ground-truth
/// bindings an attacker would learn by sniffing the LAN are injected via
/// learn_binding() by the harness.
class Attacker : public sim::Node {
public:
    struct Config {
        std::string name = "attacker";
        wire::MacAddress mac;
        /// The attacker's own legitimate address, if it has one.
        std::optional<wire::Ipv4Address> ip;
        /// Answer ARP requests for the attacker's own IP (a stealthy
        /// attacker stays reachable).
        bool answer_own_arp = true;
    };

    explicit Attacker(Config config);

    void start() override {}
    void on_frame(sim::PortId in_port, const wire::FrameView& view) override;

    [[nodiscard]] wire::MacAddress mac() const { return config_.mac; }
    [[nodiscard]] const AttackerStats& stats() const { return stats_; }

    /// Records a true (IP -> MAC) binding (as learned by pre-attack
    /// sniffing); used by the MITM relay to forward intercepted traffic.
    void learn_binding(wire::Ipv4Address ip, wire::MacAddress mac);

    // ---- Campaigns ---------------------------------------------------------
    /// Starts poisoning. Returns a campaign id usable with stop().
    std::size_t start_poison(PoisonCampaign campaign);
    void stop_poison(std::size_t campaign_id);
    void stop_all();

    /// Classic full-duplex MITM between two stations: poisons both ends and
    /// relays intercepted traffic so neither notices.
    void start_mitm(wire::Ipv4Address a_ip, wire::MacAddress a_mac, wire::Ipv4Address b_ip,
                    wire::MacAddress b_mac, common::Duration repoison_period);

    /// Enables interception accounting and relaying of traffic that arrives
    /// at the attacker but is addressed (at the IP layer) to someone else.
    void enable_relay(host::DeliveryLedger* ledger) {
        ledger_ = ledger;
        relay_enabled_ = true;
    }

    /// Reply-race: watch for broadcast ARP requests asking for `spoofed_ip`
    /// and answer with `claimed_mac` after `reaction_delay`.
    void enable_reply_race(wire::Ipv4Address spoofed_ip, wire::MacAddress claimed_mac,
                           common::Duration reaction_delay);
    void disable_reply_race();

    /// MAC flooding (CAM exhaustion): sends `count` frames with random
    /// source MACs at `rate` frames/second.
    void start_mac_flood(std::uint64_t count, double rate);

    /// MAC cloning (CAM poisoning): periodically transmits frames whose
    /// Ethernet *source* is the victim's MAC, so the switch learns the
    /// victim's address on the attacker's port and diverts its unicast
    /// traffic here. Orthogonal to ARP — defeats ARP-layer schemes' scope.
    void start_mac_clone(wire::MacAddress victim_mac, common::Duration period);

    /// DHCP starvation: floods DISCOVERs with random client MACs until the
    /// server's pool is exhausted (`count` requests at `rate` per second).
    void start_dhcp_starvation(std::uint64_t count, double rate);

    /// Neighbor-table exhaustion: floods the victim with forged ARP
    /// requests from `count` random (IP, MAC) pairs at `rate` per second.
    /// Most stacks create an entry per request sender, so a bounded cache
    /// churns out its legitimate entries under LRU pressure.
    void start_cache_flood(wire::Ipv4Address victim_ip, wire::MacAddress victim_mac,
                           std::uint64_t count, double rate);

    /// Answer Antidote-style verification probes for `ip` (ablation: the
    /// attacker races the probe to defeat active verification).
    void spoof_probe_answers_for(wire::Ipv4Address ip);

    /// With the MITM relay active, kill every TCP connection flowing
    /// through us by injecting in-window RSTs toward both endpoints,
    /// spoofed from the respective peer — the classic "what ARP poisoning
    /// buys you" session attack.
    void enable_tcp_rst_injection() { tcp_rst_injection_ = true; }

    /// Transmits an arbitrary pre-built frame verbatim (replay attacks:
    /// the adversary re-injects bytes captured earlier, auth trailers and
    /// all).
    void inject_raw(const wire::EthernetFrame& frame) {
        ++stats_.poison_frames_sent;
        send(0, frame);
    }

    /// Replays captured bytes exactly: the view's shared buffer goes back
    /// on the wire verbatim — zero re-serialization, byte-for-byte what the
    /// original capture carried.
    void inject_raw(const wire::FrameView& view) {
        ++stats_.poison_frames_sent;
        send(0, view);
    }

private:
    void run_campaign(std::size_t id);
    void send_poison(const PoisonCampaign& c);
    void handle_arp(const wire::FrameView& view);
    void handle_ipv4(const wire::FrameView& view);
    void flood_tick();

    Config config_;
    AttackerStats stats_;
    std::unordered_map<wire::Ipv4Address, wire::MacAddress> true_bindings_;
    struct Campaign {
        PoisonCampaign spec;
        bool active = false;
    };
    std::vector<Campaign> campaigns_;
    bool relay_enabled_ = false;
    host::DeliveryLedger* ledger_ = nullptr;

    struct RaceSpec {
        wire::Ipv4Address spoofed_ip;
        wire::MacAddress claimed_mac;
        common::Duration reaction_delay;
    };
    std::optional<RaceSpec> race_;
    std::vector<wire::Ipv4Address> probe_spoof_ips_;

    std::uint64_t flood_remaining_ = 0;
    common::Duration flood_interval_ = common::Duration::millis(1);
    std::optional<common::Rng> flood_rng_;

    struct CloneSpec {
        wire::MacAddress victim_mac;
        common::Duration period;
    };
    std::optional<CloneSpec> clone_;
    void clone_tick();

    std::uint64_t starve_remaining_ = 0;
    common::Duration starve_interval_ = common::Duration::millis(1);
    void starve_tick();

    bool tcp_rst_injection_ = false;
    void inject_rsts_for(const wire::Ipv4Packet& relayed);

    struct CacheFloodSpec {
        wire::Ipv4Address victim_ip;
        wire::MacAddress victim_mac;
        std::uint64_t remaining = 0;
        common::Duration interval;
    };
    std::optional<CacheFloodSpec> cache_flood_;
    void cache_flood_tick();
};

}  // namespace arpsec::attack
