#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "detect/alert.hpp"
#include "detect/monitor.hpp"
#include "detect/scheme.hpp"
#include "sim/network.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "wire/frame.hpp"

namespace arpsec::replay {

/// Virtual time run past the last frame so delayed alerts (probe timeouts,
/// gossip rounds) land. The one default behind both the offline engine
/// (EngineOptions::grace) and the serve shards (ServerOptions::grace), so a
/// served stream and its offline replay score the same alerts.
inline constexpr common::Duration kDefaultGrace = common::Duration::seconds(2);

struct SessionOptions {
    /// Simulation seed; callers coerce 0 to 1 (sim::Network rejects 0).
    std::uint64_t seed = 1;
    /// Ground-truth (IP, MAC) directory handed to schemes that need a
    /// priori bindings (static entries, S-ARP enrollment, DAI).
    std::vector<detect::HostRecord> directory;
};

/// One live scheme instance behind the offline monitor vantage: a minimal
/// LAN (switch + mirror-port monitor, no hosts) with the scheme deployed,
/// consuming a frame stream one FrameView at a time. This is the single
/// code path behind both the batch replay engine and the streaming serve
/// shards — the serve<->replay alert-equivalence gate holds by construction
/// because both feed the same object the same frames.
///
/// Virtual time advances monotonically to each frame's capture timestamp;
/// frames that fail Ethernet parsing are counted and skipped, exactly as
/// the mirror port would drop undeliverable bytes. The session is
/// single-threaded by contract (see the no-threads-in-sim rule): callers
/// that shard sessions across workers must confine each session to one
/// thread.
class SchemeSession {
public:
    /// Deploys `scheme` (must be non-null) into a fresh offline LAN:
    /// deploy() with the directory and infra hooks, configure_switch(),
    /// attach_monitor(), then start_all().
    SchemeSession(std::unique_ptr<detect::Scheme> scheme, SessionOptions options);
    ~SchemeSession();

    SchemeSession(const SchemeSession&) = delete;
    SchemeSession& operator=(const SchemeSession&) = delete;

    /// Delivers one captured frame: advances virtual time to `at` (never
    /// backwards), then hands the view to the monitor. Returns false when
    /// the frame failed Ethernet parsing and was counted as malformed.
    bool feed(common::SimTime at, const wire::FrameView& view);

    /// Runs virtual time forward past the last fed frame so delayed alerts
    /// (probe timeouts, gossip rounds) land. Idempotent.
    void finish(common::Duration grace);

    /// Advances virtual time to `at` without delivering a frame (snapshot
    /// restore re-aligns the clock this way; no-op when `at` is in the past).
    void advance_to(common::SimTime at);

    [[nodiscard]] detect::AlertSink& alerts() { return alerts_; }
    [[nodiscard]] const detect::AlertSink& alerts() const { return alerts_; }
    [[nodiscard]] detect::Scheme& scheme() { return *scheme_; }
    [[nodiscard]] const detect::Scheme& scheme() const { return *scheme_; }
    [[nodiscard]] telemetry::MetricsRegistry& metrics() { return metrics_; }

    [[nodiscard]] std::uint64_t frames() const { return frames_; }
    [[nodiscard]] std::uint64_t malformed() const { return malformed_; }
    /// Timestamp of the latest frame fed so far (zero before any frame).
    [[nodiscard]] common::SimTime last_at() const { return last_at_; }
    [[nodiscard]] common::SimTime now() const;

private:
    SessionOptions options_;
    telemetry::MetricsRegistry metrics_;
    std::unique_ptr<sim::Network> net_;
    l2::Switch* fabric_ = nullptr;
    detect::MonitorNode* monitor_ = nullptr;
    detect::AlertSink alerts_;
    crypto::OpCounters ops_;
    std::unique_ptr<detect::Scheme> scheme_;
    sim::PortId next_port_ = 1;
    std::uint8_t infra_ips_ = 0;
    std::uint64_t frames_ = 0;
    std::uint64_t malformed_ = 0;
    common::SimTime last_at_ = common::SimTime::zero();
};

}  // namespace arpsec::replay
