#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "arp/policy.hpp"
#include "common/time.hpp"
#include "telemetry/metrics.hpp"
#include "wire/ipv4_address.hpp"
#include "wire/mac_address.hpp"

namespace arpsec::arp {

enum class EntryState {
    kStatic,     // administratively pinned; never overwritten or expired
    kDynamic,    // learned from traffic
};

struct CacheEntry {
    wire::MacAddress mac;
    EntryState state = EntryState::kDynamic;
    common::SimTime inserted_at;
    common::SimTime updated_at;
    UpdateSource last_source = UpdateSource::kStatic;
};

/// Outcome of offering an observed (IP, MAC) binding to the cache.
struct UpdateOutcome {
    bool accepted = false;          // the cache now holds (ip -> mac)
    bool created = false;           // a new entry was created
    bool overwrote = false;         // an existing different MAC was replaced
    wire::MacAddress previous_mac;  // valid when overwrote
    const char* reject_reason = nullptr;  // set when !accepted
};

struct CacheStats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t offers = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_by_policy = 0;
    std::uint64_t overwrites = 0;
    std::uint64_t expirations = 0;
    std::uint64_t capacity_evictions = 0;  // LRU pressure from a full table

    /// Fleet-wide aggregation (the harness pools every host's cache).
    CacheStats& operator+=(const CacheStats& o) {
        lookups += o.lookups;
        hits += o.hits;
        offers += o.offers;
        accepted += o.accepted;
        rejected_by_policy += o.rejected_by_policy;
        overwrites += o.overwrites;
        expirations += o.expirations;
        capacity_evictions += o.capacity_evictions;
        return *this;
    }
};

/// Publishes a (possibly aggregated) CacheStats into `registry` under
/// `arp.cache.*`. `overwrites` is the poisoning signal itself: a benign
/// static-addressing run has zero, a successful poison has many.
void export_metrics(const CacheStats& stats, telemetry::MetricsRegistry& registry);

/// The ARP cache of one host, governed by a CachePolicy. Time flows in from
/// the caller (the simulated host), keeping the cache testable in isolation.
class ArpCache {
public:
    explicit ArpCache(CachePolicy policy) : policy_(std::move(policy)) {}

    [[nodiscard]] const CachePolicy& policy() const { return policy_; }

    /// Looks up a usable binding; expired dynamic entries miss (and are
    /// removed lazily).
    std::optional<wire::MacAddress> lookup(wire::Ipv4Address ip, common::SimTime now);

    /// Non-mutating inspection (does not count as a lookup, returns even
    /// expired entries). For detectors and tests.
    [[nodiscard]] std::optional<CacheEntry> peek(wire::Ipv4Address ip) const;

    /// Pins a static entry (prevention scheme "static ARP entries").
    void set_static(wire::Ipv4Address ip, wire::MacAddress mac, common::SimTime now);

    /// Offers an observed binding; the policy decides. `solicited` handling
    /// is encoded in `source` by the ARP engine.
    UpdateOutcome offer(wire::Ipv4Address ip, wire::MacAddress mac, UpdateSource source,
                        common::SimTime now);

    /// Unconditionally installs a dynamic binding, bypassing policy. Used
    /// by schemes that have *verified* a binding out of band (Antidote
    /// probe result, S-ARP/TARP verification).
    void force(wire::Ipv4Address ip, wire::MacAddress mac, common::SimTime now);

    /// Removes a dynamic entry (e.g. scheme-initiated eviction).
    void evict(wire::Ipv4Address ip);

    /// Drops expired dynamic entries; returns how many were removed.
    std::size_t purge_expired(common::SimTime now);

    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] const CacheStats& stats() const { return stats_; }

    /// Snapshot of all live entries (for diagnostics and detectors).
    [[nodiscard]] std::vector<std::pair<wire::Ipv4Address, CacheEntry>> snapshot() const;

private:
    [[nodiscard]] bool expired(const CacheEntry& e, common::SimTime now) const {
        return e.state == EntryState::kDynamic && now - e.updated_at > policy_.entry_ttl;
    }

    CachePolicy policy_;
    std::unordered_map<wire::Ipv4Address, CacheEntry> entries_;
    CacheStats stats_;
};

}  // namespace arpsec::arp
