#pragma once

#include <memory>
#include <unordered_map>

#include "crypto/schnorr.hpp"
#include "detect/scheme.hpp"
#include "host/host.hpp"

namespace arpsec::detect {

/// S-ARP (Bruschi et al.): every ARP message carries a digital signature
/// and timestamp; hosts verify signatures against per-host public keys
/// served by a trusted Authoritative Key Distributor (AKD) on the LAN.
/// Complete prevention, at the price of a protocol change on every host,
/// key-management infrastructure, and asymmetric-crypto latency on the ARP
/// fast path (cold resolutions additionally pay an AKD round trip).
class SArpScheme final : public Scheme {
public:
    struct Options {
        /// Accepted clock skew / message age before a packet is considered
        /// a replay.
        common::Duration timestamp_tolerance = common::Duration::seconds(30);
        common::Duration key_fetch_timeout = common::Duration::seconds(1);
        /// Drop unsigned ARP entirely (strict mode, the paper's default).
        bool strict = true;
    };

    static constexpr std::uint16_t kAkdPort = 3310;
    static constexpr std::uint16_t kClientPort = 3311;
    static constexpr std::uint8_t kAuthTag = 1;

    SArpScheme() = default;
    explicit SArpScheme(Options options) : options_(options) {}

    [[nodiscard]] SchemeTraits traits() const override;
    void deploy(const DeploymentContext& ctx) override;
    void protect_host(host::Host& host) override;

    /// The AKD server node itself (valid after deploy). Exposed so
    /// availability experiments can take the key server down.
    [[nodiscard]] host::Host* akd_host() const { return akd_host_; }

    /// Key pair a station uses, derived from its MAC (stable across DHCP).
    static crypto::KeyPair station_key(wire::MacAddress mac);

private:
    class Hook;

    Options options_;
    wire::Ipv4Address akd_ip_;
    wire::MacAddress akd_mac_;
    std::unique_ptr<crypto::KeyPair> akd_key_;
    host::Host* akd_host_ = nullptr;
    /// The AKD's authoritative key registry (IP -> station public key).
    std::unordered_map<wire::Ipv4Address, crypto::PublicKey> registry_;
};

}  // namespace arpsec::detect
