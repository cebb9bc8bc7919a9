#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/time.hpp"
#include "detect/registry.hpp"
#include "exp/executor.hpp"
#include "replay/session.hpp"
#include "replay/trace.hpp"
#include "telemetry/json.hpp"
#include "wire/frame.hpp"

namespace arpsec::replay {

struct EngineOptions {
    /// An alert counts as true positive when an attack frame precedes it
    /// within this window; an attack counts as detected when an alert
    /// follows it within the same window.
    common::Duration match_window = common::Duration::seconds(1);
    /// Extra virtual time after the last frame so delayed alerts land.
    common::Duration grace = kDefaultGrace;
    /// Measure wall clock and report frames/sec. Timing is inherently
    /// nondeterministic; turn it off when output must be byte-identical
    /// (wall_seconds and frames_per_second then report as 0).
    bool timing = true;
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
    double wall_seconds = 0.0;
    double frames_per_second = 0.0;
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
/// sidecar into precision/recall, plus frames/sec throughput.
class Engine {
public:
    static constexpr const char* kSchema = "arpsec.replay-artifact.v1";

    explicit Engine(const detect::Registry& registry, EngineOptions options = {})
        : registry_(&registry), options_(options) {}

    /// Wraps every trace frame in a primed FrameView: the Ethernet header
    /// and (for ARP frames) the payload are parsed exactly once, here, and
    /// memoized in the shared buffer. Priming on the calling thread is what
    /// makes the views safe to share across run_all's worker threads — the
    /// memo is written before any fan-out and only read after.
    [[nodiscard]] static std::vector<wire::FrameView> make_views(const LabeledTrace& trace);

    /// Fails when `scheme` is not registered. Parses each frame itself;
    /// prefer the pre-built-views overload when replaying the same trace
    /// through more than one scheme.
    [[nodiscard]] common::Expected<SchemeScore> run(const LabeledTrace& trace,
                                                    const std::string& scheme) const;

    /// Same, but feeds pre-built views (`views[i]` must wrap
    /// `trace.frames[i]`, as produced by make_views) so the per-frame parse
    /// cost is paid once per trace instead of once per (trace, scheme).
    [[nodiscard]] common::Expected<SchemeScore> run(const LabeledTrace& trace,
                                                    std::span<const wire::FrameView> views,
                                                    const std::string& scheme) const;

    /// Fans schemes out over exp::map_indexed; scores come back in input
    /// order, so reports are byte-identical for every `jobs` value. The
    /// trace is parsed into shared views once, up front — every scheme and
    /// every worker replays the same immutable buffers.
    [[nodiscard]] std::vector<exp::Outcome<SchemeScore>> run_all(
        const LabeledTrace& trace, const std::vector<std::string>& schemes,
        std::size_t jobs) const;

    /// Builds the arpsec.replay-artifact.v1 envelope for a finished run.
    [[nodiscard]] static telemetry::Json artifact(const LabeledTrace& trace,
                                                  const std::vector<SchemeScore>& scores,
                                                  const std::string& producer);

private:
    const detect::Registry* registry_;
    EngineOptions options_;
};

}  // namespace arpsec::replay
