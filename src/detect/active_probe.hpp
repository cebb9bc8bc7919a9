#pragma once

#include <memory>

#include "common/time.hpp"
#include "detect/scheme.hpp"

namespace arpsec::detect {

/// Active-verification detector (XArp-class): keeps an arpwatch-style
/// database, but on a conflicting claim it *probes* the previously known
/// MAC instead of alerting immediately. Two stations answering for one IP
/// confirms an attack; a silent old MAC means a legitimate rebind, which is
/// absorbed without a false alarm. Costs a little active traffic; still
/// detection-only.
class ActiveProbeScheme final : public Scheme {
public:
    struct Options {
        common::Duration probe_timeout = common::Duration::millis(400);
        /// Re-alert backoff: a confirmed-spoofed IP is not re-verified for
        /// this long (keeps alert volume bounded under persistent attack).
        common::Duration realert_backoff = common::Duration::seconds(10);
    };

    ActiveProbeScheme() = default;
    explicit ActiveProbeScheme(Options options) : options_(options) {}

    [[nodiscard]] SchemeTraits traits() const override;
    void attach_monitor(MonitorNode& monitor) override;

    /// The station database, in-flight probes and re-alert clock round-trip
    /// through `snapshot_state`; restore re-arms each pending probe's
    /// timeout at its original virtual-time deadline.
    [[nodiscard]] telemetry::Json snapshot_state() const override;
    void restore_state(const telemetry::Json& state) override;

private:
    class Prober;
    Options options_;
    std::shared_ptr<Prober> prober_;
};

}  // namespace arpsec::detect
