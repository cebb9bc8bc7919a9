#include "core/runner.hpp"

#include <cassert>

namespace arpsec::core {

using common::Duration;
using common::SimTime;
using wire::Ipv4Address;
using wire::MacAddress;

std::string to_string(Addressing a) {
    return a == Addressing::kStatic ? "static" : "dhcp";
}

std::string to_string(AttackKind k) {
    switch (k) {
        case AttackKind::kNone: return "none";
        case AttackKind::kMitm: return "mitm";
        case AttackKind::kDosBlackhole: return "dos-blackhole";
        case AttackKind::kHijackOffline: return "hijack-offline";
        case AttackKind::kReplyRace: return "reply-race";
    }
    return "?";
}

std::string ScenarioResult::summary_line() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%-18s attack=%-15s success=%-5s intercept=%5.1f%% deliver=%5.1f%% TP=%llu "
                  "FP=%llu latency=%s",
                  scheme_name.c_str(), to_string(config.attack).c_str(),
                  attack_succeeded ? "yes" : "no", attack_window.interception_ratio() * 100.0,
                  attack_window.delivery_ratio() * 100.0,
                  static_cast<unsigned long long>(alerts.true_positives),
                  static_cast<unsigned long long>(alerts.false_positives),
                  alerts.detection_latency ? alerts.detection_latency->to_string().c_str()
                                           : "n/a");
    return buf;
}

ScenarioRunner::ScenarioRunner(ScenarioConfig config) : config_(std::move(config)) {}
ScenarioRunner::~ScenarioRunner() = default;

ScenarioResult ScenarioRunner::run_scheme(const ScenarioConfig& config, detect::Scheme& scheme) {
    ScenarioRunner runner(config);
    return runner.run(scheme);
}

void ScenarioRunner::build() {
    net_ = std::make_unique<sim::Network>(config_.seed);
    net_->attach_metrics(metrics_);

    const std::size_t ports =
        1 /*gateway*/ + config_.host_count + 1 /*attacker*/ + 1 /*monitor*/ +
        config_.churn.dhcp_recycles + 8 /*infra + nic swap spares*/;
    switch_ = &net_->emplace_node<l2::Switch>("switch", ports);

    sim::LinkConfig access_link;
    access_link.loss_probability = config_.link_loss;
    const auto attach = [this, access_link](sim::NodeId id) {
        const sim::PortId port = next_free_port_++;
        net_->connect(sim::Endpoint{id, 0}, sim::Endpoint{switch_->id(), port}, access_link);
        return port;
    };

    // Gateway (also the DHCP server and the hosts' traffic sink).
    host::HostConfig gw_cfg;
    gw_cfg.name = "gateway";
    gw_cfg.mac = MacAddress::local(1);
    gw_cfg.static_ip = gateway_ip();
    gw_cfg.subnet = subnet();
    gw_cfg.gateway = gateway_ip();
    gw_cfg.arp_policy = config_.host_policy;
    gateway_ = &net_->emplace_node<host::Host>(gw_cfg);
    const sim::PortId gw_port = attach(gateway_->id());
    switch_->set_trusted_port(gw_port, true);

    host::DhcpServer::Config dhcp_cfg;
    dhcp_cfg.pool_start = Ipv4Address{192, 168, 1, 100};
    dhcp_cfg.pool_size =
        static_cast<std::uint32_t>(config_.host_count + config_.churn.dhcp_recycles + 2);
    dhcp_cfg.lease_seconds = config_.lease_seconds;
    dhcp_cfg.router = gateway_ip();
    dhcp_server_ = std::make_unique<host::DhcpServer>(*gateway_, dhcp_cfg);
    sink_apps_.push_back(std::make_unique<host::UdpSinkApp>(*gateway_, 7000, &ledger_));

    // Hosts. hosts_[0] is the designated victim.
    for (std::size_t i = 0; i < config_.host_count; ++i) {
        host::HostConfig cfg;
        cfg.name = "host" + std::to_string(i);
        cfg.mac = MacAddress::local(10 + i);
        if (config_.addressing == Addressing::kStatic) cfg.static_ip = static_host_ip(i);
        cfg.subnet = subnet();
        cfg.gateway = gateway_ip();
        cfg.arp_policy = config_.host_policy;
        host::Host& h = net_->emplace_node<host::Host>(cfg);
        attach(h.id());
        hosts_.push_back(&h);
        sink_apps_.push_back(std::make_unique<host::UdpSinkApp>(h, 7000, &ledger_));
        traffic_apps_.push_back(std::make_unique<host::TrafficApp>(
            h, ledger_,
            std::vector<host::TrafficApp::FlowSpec>{
                {static_cast<std::uint32_t>(i + 1), gateway_ip(), 7000,
                 config_.traffic_period}}));
    }

    // Reverse flow gateway -> victim, so hijack/offline attacks have loot.
    const auto add_gateway_flow = [this](Ipv4Address victim_ip) {
        traffic_apps_.push_back(std::make_unique<host::TrafficApp>(
            *gateway_, ledger_,
            std::vector<host::TrafficApp::FlowSpec>{
                {1000, victim_ip, 7000, config_.traffic_period}}));
    };
    if (config_.addressing == Addressing::kStatic) {
        add_gateway_flow(static_host_ip(0));
    } else {
        hosts_.front()->add_ip_listener(
            [add_gateway_flow, done = false](Ipv4Address ip) mutable {
                if (!done) {
                    add_gateway_flow(ip);
                    done = true;
                }
            });
    }

    // Attacker.
    attack::Attacker::Config atk_cfg;
    atk_cfg.mac = MacAddress::local(0x666);
    atk_cfg.ip = Ipv4Address{192, 168, 1, 250};
    attacker_ = &net_->emplace_node<attack::Attacker>(atk_cfg);
    attach(attacker_->id());
    attacker_macs_.insert(atk_cfg.mac);
    dos_mac_ = MacAddress::local(0xDEAD00);

    // Mirror-port monitor.
    monitor_ = &net_->emplace_node<detect::MonitorNode>("monitor", MacAddress::local(0x999));
    const sim::PortId mon_port = attach(monitor_->id());
    switch_->set_mirror_port(mon_port);
    switch_->set_trusted_port(mon_port, true);
}

void ScenarioRunner::deploy(detect::Scheme& scheme) {
    detect::DeploymentContext ctx;
    ctx.net = net_.get();
    ctx.fabric = switch_;
    ctx.alerts = &alert_sink_;
    ctx.cost = config_.cost_model;
    ctx.ops = &crypto_ops_;
    if (config_.addressing == Addressing::kStatic) {
        ctx.directory.push_back({"gateway", gateway_ip(), gateway_->mac()});
        for (std::size_t i = 0; i < hosts_.size(); ++i) {
            ctx.directory.push_back({hosts_[i]->name(), static_host_ip(i), hosts_[i]->mac()});
        }
    } else {
        ctx.directory.push_back({"gateway", gateway_ip(), gateway_->mac()});
    }
    ctx.attach_infra = [this](sim::NodeId id) {
        const sim::PortId port = next_free_port_++;
        net_->connect(sim::Endpoint{id, 0}, sim::Endpoint{switch_->id(), port});
        switch_->set_trusted_port(port, true);
        return port;
    };
    ctx.alloc_infra_ip = [this] {
        return Ipv4Address{192, 168, 1, static_cast<std::uint8_t>(240 + infra_ip_counter_++)};
    };

    scheme.deploy(ctx);
    scheme.configure_switch(*switch_);
    scheme.protect_host(*gateway_);
    for (host::Host* h : hosts_) scheme.protect_host(*h);
    scheme.attach_monitor(*monitor_);
}

void ScenarioRunner::schedule_timeline() {
    auto& sched = net_->scheduler();
    const SimTime t0 = SimTime::zero();

    sched.schedule_at(t0 + config_.attack_start, [this] {
        snapshot_at_attack_start_ =
            WindowStats{ledger_.sent(), ledger_.delivered(), ledger_.intercepted()};
        victim_flow_at_start_ = ledger_.flow_stats(kVictimFlowId);
        launch_attack();
    });
    sched.schedule_at(t0 + config_.attack_stop, [this] {
        snapshot_at_attack_stop_ =
            WindowStats{ledger_.sent(), ledger_.delivered(), ledger_.intercepted()};
        victim_flow_at_stop_ = ledger_.flow_stats(kVictimFlowId);
        halt_attack();
    });

    // Benign churn.
    for (std::size_t k = 0; k < config_.churn.dhcp_recycles; ++k) {
        if (config_.host_count < 2) break;
        const std::size_t leave_idx =
            config_.host_count - 1 - (k % (config_.host_count - 1));
        const Duration leave_at = Duration::seconds(5) + Duration::seconds(8) * static_cast<std::int64_t>(k);
        sched.schedule_at(t0 + leave_at, [this, leave_idx] {
            hosts_[leave_idx]->dhcp_release();
            // Power down once the RELEASE datagram has left the NIC.
            hosts_[leave_idx]->after(Duration::millis(10),
                                     [this, leave_idx] { hosts_[leave_idx]->power_off(); });
        });
        sched.schedule_at(t0 + leave_at + Duration::seconds(4), [this, k] {
            host::HostConfig cfg;
            cfg.name = "joiner" + std::to_string(k);
            cfg.mac = MacAddress::local(0x4000 + k);
            cfg.subnet = subnet();
            cfg.gateway = gateway_ip();
            cfg.arp_policy = config_.host_policy;
            host::Host& h = net_->emplace_node<host::Host>(cfg);
            const sim::PortId port = next_free_port_++;
            net_->connect(sim::Endpoint{h.id(), 0}, sim::Endpoint{switch_->id(), port});
            sink_apps_.push_back(std::make_unique<host::UdpSinkApp>(h, 7000, &ledger_));
            traffic_apps_.push_back(std::make_unique<host::TrafficApp>(
                h, ledger_,
                std::vector<host::TrafficApp::FlowSpec>{
                    {static_cast<std::uint32_t>(2000 + k), gateway_ip(), 7000,
                     config_.traffic_period}}));
            if (active_scheme_ != nullptr) active_scheme_->protect_host(h);
            hosts_.push_back(&h);
        });
    }

    if (config_.churn.nic_swap && config_.addressing == Addressing::kStatic &&
        config_.host_count >= 2) {
        const std::size_t idx = config_.host_count - 1;
        sched.schedule_at(t0 + Duration::seconds(8), [this, idx] {
            hosts_[idx]->power_off();
        });
        sched.schedule_at(t0 + Duration::seconds(10), [this, idx] {
            host::HostConfig cfg;
            cfg.name = "swapped" + std::to_string(idx);
            cfg.mac = MacAddress::local(0x5000 + idx);  // new NIC
            cfg.static_ip = static_host_ip(idx);        // same address
            cfg.subnet = subnet();
            cfg.gateway = gateway_ip();
            cfg.arp_policy = config_.host_policy;
            host::Host& h = net_->emplace_node<host::Host>(cfg);
            const sim::PortId port = next_free_port_++;
            net_->connect(sim::Endpoint{h.id(), 0}, sim::Endpoint{switch_->id(), port});
            sink_apps_.push_back(std::make_unique<host::UdpSinkApp>(h, 7000, &ledger_));
            if (active_scheme_ != nullptr) active_scheme_->protect_host(h);
            hosts_.push_back(&h);
        });
    }

    if (config_.attack == AttackKind::kHijackOffline) {
        sched.schedule_at(t0 + (config_.attack_start - Duration::seconds(2)),
                          [this] { hosts_.front()->power_off(); });
        sched.schedule_at(t0 + config_.attack_stop + Duration::seconds(1),
                          [this] { hosts_.front()->power_on(); });
    }
}

void ScenarioRunner::launch_attack() {
    if (config_.attack == AttackKind::kNone) return;
    host::Host* victim = hosts_.front();
    if (tracer_ != nullptr) {
        tracer_->instant("attack-launch", "attack", net_->now(),
                         {{"kind", to_string(config_.attack)},
                          {"vector", attack::to_string(config_.vector)}});
    }
    victim_ip_at_attack_ = victim->has_ip() ? victim->ip() : static_host_ip(0);
    gateway_ip_at_attack_ = gateway_ip();

    attacker_->learn_binding(victim_ip_at_attack_, victim->mac());
    attacker_->learn_binding(gateway_ip_at_attack_, gateway_->mac());
    attacker_->enable_relay(&ledger_);

    switch (config_.attack) {
        case AttackKind::kNone:
            break;
        case AttackKind::kMitm: {
            attacker_->start_poison({victim_ip_at_attack_, victim->mac(), gateway_ip_at_attack_,
                                     attacker_->mac(), config_.vector,
                                     config_.repoison_period});
            attacker_->start_poison({gateway_ip_at_attack_, gateway_->mac(),
                                     victim_ip_at_attack_, attacker_->mac(), config_.vector,
                                     config_.repoison_period});
            break;
        }
        case AttackKind::kDosBlackhole: {
            attacker_macs_.insert(dos_mac_);
            attacker_->start_poison({victim_ip_at_attack_, victim->mac(), gateway_ip_at_attack_,
                                     dos_mac_, config_.vector, config_.repoison_period});
            break;
        }
        case AttackKind::kHijackOffline: {
            attacker_->start_poison({gateway_ip_at_attack_, gateway_->mac(),
                                     victim_ip_at_attack_, attacker_->mac(), config_.vector,
                                     config_.repoison_period});
            break;
        }
        case AttackKind::kReplyRace: {
            attacker_->enable_reply_race(gateway_ip_at_attack_, attacker_->mac(),
                                         Duration::micros(50));
            // Model periodic cache expiry on the victim so races recur.
            const auto evict_loop = [this, victim]() {
                victim->arp_cache().evict(gateway_ip_at_attack_);
            };
            evict_loop();
            victim->every(config_.repoison_period, evict_loop);
            break;
        }
    }
}

void ScenarioRunner::halt_attack() {
    // Poisoning state at the instant the attack ends (before caches decay).
    const Ipv4Address poisoned_key = config_.attack == AttackKind::kHijackOffline
                                         ? victim_ip_at_attack_
                                         : gateway_ip_at_attack_;
    arp::ArpCache& cache = config_.attack == AttackKind::kHijackOffline
                               ? gateway_->arp_cache()
                               : hosts_.front()->arp_cache();
    if (const auto entry = cache.peek(poisoned_key)) {
        victim_poisoned_at_end_ = attacker_macs_.count(entry->mac) != 0;
    }
    attacker_->stop_all();
    if (tracer_ != nullptr) {
        tracer_->instant("attack-halt", "attack", net_->now(),
                         {{"victim_poisoned", victim_poisoned_at_end_ ? "true" : "false"}});
    }
}

bool ScenarioRunner::is_attacker_alert(const detect::Alert& a) const {
    return attacker_macs_.count(a.claimed_mac) != 0 || attacker_macs_.count(a.previous_mac) != 0;
}

ScenarioResult ScenarioRunner::collect(detect::Scheme& scheme) {
    ScenarioResult r;
    r.scheme_name = scheme.traits().name;
    r.config = config_;

    r.benign_window = snapshot_at_attack_start_;
    r.attack_window = WindowStats{
        snapshot_at_attack_stop_.sent - snapshot_at_attack_start_.sent,
        snapshot_at_attack_stop_.delivered - snapshot_at_attack_start_.delivered,
        snapshot_at_attack_stop_.intercepted - snapshot_at_attack_start_.intercepted};
    r.victim_flow_attack_window =
        WindowStats{victim_flow_at_stop_.sent - victim_flow_at_start_.sent,
                    victim_flow_at_stop_.delivered - victim_flow_at_start_.delivered,
                    victim_flow_at_stop_.intercepted - victim_flow_at_start_.intercepted};
    r.victim_poisoned_at_end = victim_poisoned_at_end_;

    switch (config_.attack) {
        case AttackKind::kNone:
            r.attack_succeeded = false;
            break;
        case AttackKind::kDosBlackhole:
            // DoS efficacy is judged on the targeted victim's own flow.
            r.attack_succeeded = r.victim_flow_attack_window.delivery_ratio() < 0.5;
            break;
        case AttackKind::kMitm:
        case AttackKind::kHijackOffline:
        case AttackKind::kReplyRace:
            r.attack_succeeded = r.attack_window.interception_ratio() > 0.05;
            break;
    }

    const SimTime attack_at = SimTime::zero() + config_.attack_start;
    for (const detect::Alert& a : alert_sink_.alerts()) {
        if (is_attacker_alert(a)) {
            ++r.alerts.true_positives;
            if (!r.alerts.detection_latency && a.at >= attack_at) {
                r.alerts.detection_latency = a.at - attack_at;
            }
        } else {
            ++r.alerts.false_positives;
        }
    }
    r.raw_alerts = alert_sink_.alerts();

    const auto& c = net_->counters();
    r.total_frames = c.frames;
    r.total_bytes = c.bytes;
    r.arp_frames = c.arp_frames;
    r.arp_bytes = c.arp_bytes;

    r.resolution_latency_us.merge(gateway_->stats().resolution_latency_us);
    for (host::Host* h : hosts_) r.resolution_latency_us.merge(h->stats().resolution_latency_us);

    r.crypto_ops = crypto_ops_;
    r.events_executed = net_->scheduler().executed();

    publish_metrics(r);
    trace_timeline(r);
    return r;
}

void ScenarioRunner::publish_metrics(const ScenarioResult& r) {
    // sim.* counters accumulated live; everything below is the end-of-run
    // aggregation across the layers.
    switch_->export_metrics(metrics_);

    arp::CacheStats arp_agg = gateway_->arp_cache().stats();
    for (host::Host* h : hosts_) arp_agg += h->arp_cache().stats();
    arp::export_metrics(arp_agg, metrics_);

    alert_sink_.export_metrics(metrics_);
    metrics_.counter("detect.alerts.true_positives").inc(r.alerts.true_positives);
    metrics_.counter("detect.alerts.false_positives").inc(r.alerts.false_positives);
    telemetry::Gauge& ttfa = metrics_.gauge("detect.time_to_first_alert_us");
    ttfa.set(r.alerts.detection_latency
                 ? static_cast<std::int64_t>(r.alerts.detection_latency->to_micros())
                 : -1);

    metrics_.counter("crypto.ops.signs").inc(r.crypto_ops.signs);
    metrics_.counter("crypto.ops.verifies").inc(r.crypto_ops.verifies);
    metrics_.counter("crypto.ops.hashes").inc(r.crypto_ops.hashes);
    metrics_.counter("crypto.ops.hmacs").inc(r.crypto_ops.hmacs);

    telemetry::Histogram& resolve = metrics_.histogram(
        "arp.resolution_latency_us",
        {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000});
    for (const double v : r.resolution_latency_us.samples()) resolve.observe(v);

    metrics_.counter("scenario.traffic.sent").inc(ledger_.sent());
    metrics_.counter("scenario.traffic.delivered").inc(ledger_.delivered());
    metrics_.counter("scenario.traffic.intercepted").inc(ledger_.intercepted());
}

void ScenarioRunner::trace_timeline(const ScenarioResult& r) {
    if (tracer_ == nullptr) return;
    const SimTime t0 = SimTime::zero();
    tracer_->complete("benign-window", "scenario", t0, config_.attack_start,
                      {{"scheme", r.scheme_name}});
    tracer_->complete("attack-window", "scenario", t0 + config_.attack_start,
                      config_.attack_stop - config_.attack_start,
                      {{"attack", to_string(config_.attack)},
                       {"succeeded", r.attack_succeeded ? "true" : "false"}});
    tracer_->complete("cooldown", "scenario", t0 + config_.attack_stop,
                      config_.duration - config_.attack_stop);
    // Alerts are replayed from the sink so the tracer never perturbs the
    // scheme's own callback channel mid-run.
    for (const detect::Alert& a : alert_sink_.alerts()) {
        tracer_->instant("alert", "detect", a.at,
                         {{"scheme", a.scheme},
                          {"kind", detect::to_string(a.kind)},
                          {"ip", a.ip.to_string()},
                          {"claimed_mac", a.claimed_mac.to_string()},
                          {"true_positive", is_attacker_alert(a) ? "true" : "false"}});
    }
    tracer_->instant("run-end", "scenario", t0 + config_.duration,
                     {{"events_executed", std::to_string(r.events_executed)}});
}

ScenarioResult ScenarioRunner::run(detect::Scheme& scheme) {
    return run_with_tap(scheme, nullptr);
}

ScenarioResult ScenarioRunner::run_with_tap(detect::Scheme& scheme, sim::CaptureTap* tap) {
    build();
    active_scheme_ = &scheme;
    deploy(scheme);
    schedule_timeline();
    if (tap != nullptr) net_->add_tap(tap);
    net_->start_all();
    net_->scheduler().run_until(SimTime::zero() + config_.duration);
    active_scheme_ = nullptr;
    return collect(scheme);
}

}  // namespace arpsec::core
