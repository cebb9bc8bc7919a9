#pragma once

#include <cstdint>
#include <map>

#include "common/time.hpp"
#include "host/payload.hpp"

namespace arpsec::host {

/// Ground-truth record of every generated datagram: who sent it, whether
/// the intended receiver got it, and whether the attacker saw it. The
/// harness derives interception/blackhole rates from this, independently of
/// what any scheme reports.
class DeliveryLedger {
public:
    struct Record {
        common::SimTime sent_at;
        bool delivered = false;
        bool intercepted = false;       // observed by the attacker in transit
        common::SimTime delivered_at;
    };

    void note_sent(const Payload& p, common::SimTime at) {
        auto [it, fresh] = records_.try_emplace(key(p));
        if (fresh) {
            ++sent_;
            ++flows_[p.flow].sent;
        }
        it->second.sent_at = at;
    }

    void note_delivered(const Payload& p, common::SimTime at) {
        auto it = records_.find(key(p));
        if (it == records_.end()) return;
        if (!it->second.delivered) {
            ++delivered_;
            ++flows_[p.flow].delivered;
        }
        it->second.delivered = true;
        it->second.delivered_at = at;
    }

    void note_intercepted(const Payload& p) {
        auto it = records_.find(key(p));
        if (it == records_.end()) return;
        if (!it->second.intercepted) {
            ++intercepted_;
            ++flows_[p.flow].intercepted;
        }
        it->second.intercepted = true;
    }

    [[nodiscard]] std::uint64_t sent() const { return sent_; }
    [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
    [[nodiscard]] std::uint64_t intercepted() const { return intercepted_; }

    /// Per-flow counters (attack efficacy is often flow-targeted: a DoS on
    /// one victim is invisible in fleet-wide ratios).
    struct FlowStats {
        std::uint64_t sent = 0;
        std::uint64_t delivered = 0;
        std::uint64_t intercepted = 0;
    };
    [[nodiscard]] FlowStats flow_stats(std::uint32_t flow) const {
        auto it = flows_.find(flow);
        return it == flows_.end() ? FlowStats{} : it->second;
    }

    [[nodiscard]] double delivery_ratio() const {
        return sent_ == 0 ? 0.0 : static_cast<double>(delivered_) / static_cast<double>(sent_);
    }
    [[nodiscard]] double interception_ratio() const {
        return sent_ == 0 ? 0.0 : static_cast<double>(intercepted_) / static_cast<double>(sent_);
    }

private:
    static std::uint64_t key(const Payload& p) {
        return (static_cast<std::uint64_t>(p.flow) << 48) ^ p.seq;
    }

    std::map<std::uint64_t, Record> records_;
    std::map<std::uint32_t, FlowStats> flows_;
    std::uint64_t sent_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t intercepted_ = 0;
};

}  // namespace arpsec::host
