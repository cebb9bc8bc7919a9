#include "replay/session.hpp"

#include <algorithm>
#include <utility>

#include "l2/switch.hpp"

namespace arpsec::replay {

SchemeSession::SchemeSession(std::unique_ptr<detect::Scheme> scheme, SessionOptions options)
    : options_(std::move(options)), scheme_(std::move(scheme)) {
    // Minimal offline LAN: a switch whose mirror port feeds the monitor.
    // No hosts — the stream already contains everything the mirror port
    // saw, so protect_host() never applies at this vantage (documented in
    // docs/REPLAY.md: active-verification probes cannot be answered by a
    // recording, which costs best-effort schemes recall here).
    net_ = std::make_unique<sim::Network>(options_.seed == 0 ? 1 : options_.seed);
    net_->attach_metrics(metrics_);
    fabric_ = &net_->emplace_node<l2::Switch>("switch", std::size_t{16});
    monitor_ =
        &net_->emplace_node<detect::MonitorNode>("monitor", wire::MacAddress::local(0x999));
    net_->connect(sim::Endpoint{monitor_->id(), 0}, sim::Endpoint{fabric_->id(), 0});
    fabric_->set_mirror_port(0);
    fabric_->set_trusted_port(0, true);

    detect::DeploymentContext ctx;
    ctx.net = net_.get();
    ctx.fabric = fabric_;
    ctx.alerts = &alerts_;
    ctx.ops = &ops_;
    ctx.directory = options_.directory;
    ctx.attach_infra = [this](sim::NodeId id) {
        const sim::PortId port = next_port_++;
        net_->connect(sim::Endpoint{id, 0}, sim::Endpoint{fabric_->id(), port});
        fabric_->set_trusted_port(port, true);
        return port;
    };
    ctx.alloc_infra_ip = [this] {
        return wire::Ipv4Address{192, 168, 1, static_cast<std::uint8_t>(240 + infra_ips_++)};
    };
    scheme_->deploy(ctx);
    scheme_->configure_switch(*fabric_);
    scheme_->attach_monitor(*monitor_);
    observed_ = monitor_->has_observers();
    net_->start_all();
}

SchemeSession::~SchemeSession() = default;

bool SchemeSession::feed(common::SimTime at, const wire::FrameView& view) {
    // Unobserved, the frame reaches nothing, so the clock can wait for
    // finish() or advance_to().
    if (observed_ && at > net_->now()) net_->scheduler().run_until(at);
    if (at > last_at_) last_at_ = at;
    ++frames_;
    // The view was parsed (and memoized) once when it was built; this is a
    // memo read, not a parse, no matter how many sessions see the frame.
    if (!view.ok()) {
        ++malformed_;
        return false;
    }
    if (observed_) monitor_->on_frame(0, view);
    return true;
}

void SchemeSession::finish(common::Duration grace) {
    const common::SimTime until = last_at_ + grace;
    if (until > net_->now()) net_->scheduler().run_until(until);
}

void SchemeSession::advance_to(common::SimTime at) {
    if (at > last_at_) last_at_ = at;
    if (at > net_->now()) net_->scheduler().run_until(at);
}

common::SimTime SchemeSession::now() const { return std::max(net_->now(), last_at_); }

}  // namespace arpsec::replay
