#include "replay/score.hpp"

#include <algorithm>

namespace arpsec::replay {

namespace {

using common::Duration;
using common::SimTime;

/// Sorts `times` unless it already is (a session's alerts and a trace's
/// attack frames normally are).
void ensure_sorted(std::vector<SimTime>& times) {
    if (!std::is_sorted(times.begin(), times.end())) std::sort(times.begin(), times.end());
}

/// How many of `probes` have some element of `marks` in
/// [probe - before, probe + after]. Both are ascending, so one cursor into
/// `marks` walks forward once: each probe's lower edge is no earlier than
/// the last one's.
std::size_t count_covered(const std::vector<SimTime>& probes, const std::vector<SimTime>& marks,
                          Duration before, Duration after) {
    std::size_t covered = 0;
    auto mark = marks.begin();
    for (const SimTime probe : probes) {
        const SimTime from{probe.nanos() - before.count()};
        while (mark != marks.end() && *mark < from) ++mark;
        if (mark != marks.end() && *mark <= probe + after) ++covered;
    }
    return covered;
}

}  // namespace

MatchCounts match_alerts(std::vector<SimTime> attack_times,
                         const std::vector<detect::Alert>& alerts, Duration window) {
    ensure_sorted(attack_times);
    std::vector<SimTime> alert_times;
    alert_times.reserve(alerts.size());
    for (const detect::Alert& a : alerts) alert_times.push_back(a.at);
    ensure_sorted(alert_times);

    MatchCounts counts;
    counts.true_positive_alerts =
        count_covered(alert_times, attack_times, window, Duration::zero());
    counts.false_positive_alerts = alerts.size() - counts.true_positive_alerts;
    counts.detected_attacks = count_covered(attack_times, alert_times, Duration::zero(), window);
    return counts;
}

}  // namespace arpsec::replay
