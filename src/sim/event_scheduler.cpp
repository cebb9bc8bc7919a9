#include "sim/event_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace arpsec::sim {

EventId EventScheduler::schedule_at(common::SimTime at, std::function<void()> fn) {
    if (at < now_) at = now_;  // events cannot fire in the past
    const EventId id = next_id_++;
    queue_.push_back(Event{at, id, std::move(fn)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
    if (queue_depth_metric_ != nullptr) {
        queue_depth_metric_->set(static_cast<std::int64_t>(pending()));
    }
    return id;
}

void EventScheduler::attach_metrics(telemetry::MetricsRegistry& registry) {
    executed_metric_ = &registry.counter("sim.sched.events_executed");
    queue_depth_metric_ = &registry.gauge("sim.sched.queue_depth");
    queue_depth_metric_->set(static_cast<std::int64_t>(pending()));
}

EventId EventScheduler::schedule_after(common::Duration delay, std::function<void()> fn) {
    assert(delay >= common::Duration::zero());
    return schedule_at(now_ + delay, std::move(fn));
}

bool EventScheduler::cancel(EventId id) {
    if (id == 0 || id >= next_id_) return false;
    return cancelled_.insert(id).second;
}

EventScheduler::Event EventScheduler::pop_earliest() {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    return ev;
}

bool EventScheduler::fire_next() {
    while (!queue_.empty()) {
        Event ev = pop_earliest();
        if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
            cancelled_.erase(it);
            continue;
        }
        now_ = ev.at;
        ++executed_;
        if (executed_metric_ != nullptr) executed_metric_->inc();
        ev.fn();
        return true;
    }
    return false;
}

bool EventScheduler::run_one() { return fire_next(); }

void EventScheduler::run_until_slow(common::SimTime deadline) {
    while (!queue_.empty()) {
        // Peek past cancelled entries without firing. The hash lookup is
        // guarded by empty(): with nothing cancelled (the common case) it
        // was measurably hot.
        const Event& top = queue_.front();
        if (!cancelled_.empty() && cancelled_.count(top.id) != 0) {
            cancelled_.erase(top.id);
            pop_earliest();
            continue;
        }
        if (top.at > deadline) break;
        fire_next();
    }
    if (now_ < deadline) now_ = deadline;
}

std::size_t EventScheduler::run_all(std::size_t max_events) {
    std::size_t n = 0;
    while (n < max_events && fire_next()) ++n;
    if (n == max_events) {
        throw std::runtime_error("EventScheduler::run_all: event budget exhausted (livelock?)");
    }
    return n;
}

}  // namespace arpsec::sim
