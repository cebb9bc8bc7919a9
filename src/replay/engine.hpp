#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/time.hpp"
#include "detect/registry.hpp"
#include "exp/executor.hpp"
#include "replay/session.hpp"
#include "replay/trace.hpp"
#include "telemetry/json.hpp"

namespace arpsec::replay {

struct EngineOptions {
    /// An alert counts as true positive when an attack frame precedes it
    /// within this window; an attack counts as detected when an alert
    /// follows it within the same window.
    common::Duration match_window = common::Duration::seconds(1);
    /// Extra virtual time after the last frame so delayed alerts land.
    common::Duration grace = kDefaultGrace;
};

/// One scheme's scorecard for one trace.
struct SchemeScore {
    std::string scheme;
    std::uint64_t frames = 0;
    std::uint64_t malformed = 0;      // frames that failed Ethernet parsing
    std::size_t attack_frames = 0;    // ground-truth poisoning attempts
    std::size_t alerts = 0;
    std::size_t true_positive_alerts = 0;
    std::size_t false_positive_alerts = 0;
    std::size_t detected_attacks = 0;
    double precision = 1.0;  // TP alerts / alerts (1.0 when no alerts fired)
    double recall = 1.0;     // detected attacks / attacks (1.0 when no attacks)
    telemetry::Json metrics = telemetry::Json::object();
    /// The raw alerts behind the counts above, in emission order. Not part
    /// of the JSON artifact; arpsec-replay's `--alerts` export and the
    /// serve<->replay equivalence gate consume them.
    std::vector<detect::Alert> alert_list;

    [[nodiscard]] telemetry::Json to_json() const;
};

/// Replays a labeled trace through registered schemes from the offline
/// monitor vantage: a minimal LAN (switch + mirror-port monitor, no hosts)
/// is stood up per scheme, virtual time advances to each frame's capture
/// timestamp, and the raw bytes are fed to the monitor exactly as the
/// mirror port delivered them. Alerts are scored against the ground-truth
/// sidecar into precision/recall. Nothing timed enters a score: callers
/// that want throughput time run_all themselves.
class Engine {
public:
    static constexpr const char* kSchema = "arpsec.replay-artifact.v2";

    explicit Engine(const detect::Registry& registry, EngineOptions options = {})
        : registry_(&registry), options_(options) {}

    /// The one-scheme case of run_all, on the calling thread. Fails when
    /// `scheme` is not registered.
    [[nodiscard]] common::Expected<SchemeScore> run(const LabeledTrace& trace,
                                                    const std::string& scheme) const;

    /// Frame-major replay. Unknown scheme names fail their own slot before
    /// any worker starts; the J = min(jobs, known schemes) workers then
    /// split the rest, worker w owning schemes w, w+J, w+2J, ... of them.
    /// Each worker walks the trace once: per frame it captures one
    /// FrameView, feeds it to each of its sessions and drops it, so no view
    /// outlives its frame or crosses threads. Then it scores its sessions.
    /// Scores come back in input order and are byte-identical for every
    /// `jobs` value.
    [[nodiscard]] std::vector<exp::Outcome<SchemeScore>> run_all(
        const LabeledTrace& trace, const std::vector<std::string>& schemes,
        std::size_t jobs) const;

    /// Builds the arpsec.replay-artifact.v2 envelope for a finished run.
    [[nodiscard]] static telemetry::Json artifact(const LabeledTrace& trace,
                                                  const std::vector<SchemeScore>& scores,
                                                  const std::string& producer);

private:
    const detect::Registry* registry_;
    EngineOptions options_;
};

}  // namespace arpsec::replay
