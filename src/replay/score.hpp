#pragma once

#include <cstddef>
#include <vector>

#include "common/time.hpp"
#include "detect/alert.hpp"

namespace arpsec::replay {

/// Alert<->attack matching totals under the window rule shared by every
/// scorer (batch replay, serve loadgen): an alert is justified by any
/// attack frame in the window before it, and an attack is detected by any
/// alert in the window after it.
struct MatchCounts {
    std::size_t true_positive_alerts = 0;
    std::size_t false_positive_alerts = 0;
    std::size_t detected_attacks = 0;
};

/// Scores `alerts` against ground-truth attack timestamps. Neither input
/// needs to be sorted (pcap capture order can interleave); `attack_times`
/// is taken by value because matching sorts it internally. A side already
/// in time order skips its sort, and the matching itself is one forward
/// merge walk per direction.
[[nodiscard]] MatchCounts match_alerts(std::vector<common::SimTime> attack_times,
                                       const std::vector<detect::Alert>& alerts,
                                       common::Duration window);

}  // namespace arpsec::replay
