#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"
#include "telemetry/metrics.hpp"

namespace arpsec::sim {

using EventId = std::uint64_t;

/// Single-threaded discrete-event scheduler. Events at equal timestamps
/// fire in scheduling order (FIFO), which together with the deterministic
/// RNG makes whole simulations bit-for-bit reproducible.
class EventScheduler {
public:
    [[nodiscard]] common::SimTime now() const { return now_; }

    EventId schedule_at(common::SimTime at, std::function<void()> fn);
    EventId schedule_after(common::Duration delay, std::function<void()> fn);

    /// Cancels a pending event. Cancelling an already-fired or unknown id
    /// is a no-op. Returns true if the event was pending.
    bool cancel(EventId id);

    /// Runs the next event, if any. Returns false when the queue is empty.
    bool run_one();

    /// Runs events with timestamp <= deadline; leaves now() == deadline.
    /// Inline fast path: replay calls this once per trace frame, and almost
    /// always nothing is due — the queue is empty or its head (even a
    /// lazily-cancelled one, purged later) lies past the deadline.
    void run_until(common::SimTime deadline) {
        if (queue_.empty() || queue_.top().at > deadline) {
            if (now_ < deadline) now_ = deadline;
            return;
        }
        run_until_slow(deadline);
    }

    /// Drains the queue completely (bounded by `max_events` as a runaway
    /// guard). Returns the number of events executed.
    std::size_t run_all(std::size_t max_events = 100'000'000);

    [[nodiscard]] std::size_t pending() const { return queue_.size() - cancelled_.size(); }
    [[nodiscard]] std::uint64_t executed() const { return executed_; }

    /// Publishes scheduler activity into `registry` from now on:
    /// `sim.sched.events_executed` (counter) and `sim.sched.queue_depth`
    /// (gauge whose high-water mark records the deepest queue seen).
    /// Handles are resolved once here; the hot path pays one increment.
    void attach_metrics(telemetry::MetricsRegistry& registry);

private:
    struct Event {
        common::SimTime at;
        EventId id;
        std::function<void()> fn;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const {
            if (a.at != b.at) return a.at > b.at;
            return a.id > b.id;
        }
    };

    bool fire_next();
    void run_until_slow(common::SimTime deadline);

    common::SimTime now_;
    EventId next_id_ = 1;
    std::uint64_t executed_ = 0;
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    std::unordered_set<EventId> cancelled_;
    telemetry::Counter* executed_metric_ = nullptr;
    telemetry::Gauge* queue_depth_metric_ = nullptr;
};

}  // namespace arpsec::sim
