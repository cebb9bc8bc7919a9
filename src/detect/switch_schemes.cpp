#include "detect/switch_schemes.hpp"

namespace arpsec::detect {
namespace {

/// Maps switch events into scheme alerts.
AlertKind kind_for(l2::SwitchEventKind k) {
    switch (k) {
        case l2::SwitchEventKind::kPortSecurityViolation:
        case l2::SwitchEventKind::kPortShutdown: return AlertKind::kPortSecurity;
        case l2::SwitchEventKind::kDaiDrop: return AlertKind::kBindingViolation;
        case l2::SwitchEventKind::kDaiRateLimited: return AlertKind::kRateAnomaly;
        case l2::SwitchEventKind::kDhcpSnoopDrop: return AlertKind::kRogueDhcp;
        case l2::SwitchEventKind::kBindingAdded:
        case l2::SwitchEventKind::kCamFull: return AlertKind::kRateAnomaly;
    }
    return AlertKind::kRateAnomaly;
}

}  // namespace

SchemeTraits PortSecurityScheme::traits() const {
    SchemeTraits t;
    t.name = "port-security";
    t.vantage = Vantage::kSwitch;
    t.detects = true;              // violations are logged
    t.prevents_poisoning = false;  // attacker's own MAC is a legal source
    t.prevents_flooding = true;
    t.requires_infrastructure = true;  // managed switch
    t.handles_dynamic_ips = true;
    t.deployment_cost = CostBand::kMedium;
    t.runtime_cost = CostBand::kNone;
    t.notes = "limits source MACs per port; orthogonal to ARP claim forgery";
    return t;
}

void PortSecurityScheme::configure_switch(l2::Switch& fabric) {
    l2::PortSecurityConfig cfg;
    cfg.enabled = true;
    cfg.max_macs_per_port = options_.max_macs_per_port;
    cfg.shutdown_on_violation = options_.shutdown_on_violation;
    fabric.set_port_security(cfg);
    fabric.set_event_listener([this](const l2::SwitchEvent& ev) {
        if (ev.kind == l2::SwitchEventKind::kBindingAdded ||
            ev.kind == l2::SwitchEventKind::kCamFull) {
            return;
        }
        Alert a;
        a.kind = kind_for(ev.kind);
        a.ip = ev.ip;
        a.claimed_mac = ev.mac;
        a.detail = l2::to_string(ev.kind) + " on port " + std::to_string(ev.port) + ": " +
                   ev.detail;
        alert(std::move(a));
    });
}

SchemeTraits DaiScheme::traits() const {
    SchemeTraits t;
    t.name = options_.use_dhcp_snooping ? "dai+dhcp-snooping" : "dai-static";
    t.vantage = Vantage::kSwitch;
    t.detects = true;
    t.prevents_poisoning = true;
    t.prevents_flooding = false;  // orthogonal (pair with port security)
    t.requires_infrastructure = true;
    t.depends_on_dhcp = options_.use_dhcp_snooping;
    t.handles_dynamic_ips = options_.use_dhcp_snooping;
    t.deployment_cost = CostBand::kMedium;
    t.runtime_cost = CostBand::kLow;  // per-ARP table check in the switch
    t.notes = options_.use_dhcp_snooping
                  ? "validates ARP against snooped DHCP leases; drops rogue DHCP too"
                  : "validates ARP against static bindings (no DHCP required)";
    return t;
}

void DaiScheme::configure_switch(l2::Switch& fabric) {
    if (options_.use_dhcp_snooping) {
        fabric.enable_dhcp_snooping({});  // trusted ports are set by the harness
    } else {
        for (const HostRecord& rec : ctx_.directory) {
            // Port unknown at configure time in static mode: learn it from
            // the CAM as frames arrive is not faithful to IOS, so static
            // bindings pin MAC only (port check relaxed via port 0xFFFF).
            fabric.add_static_binding(rec.ip, rec.mac, l2::Switch::kAnyPort);
        }
    }
    l2::ArpInspectionConfig cfg;
    cfg.enabled = true;
    cfg.validate_src_mac = true;
    cfg.rate_limit_pps = options_.rate_limit_pps;
    cfg.err_disable_on_rate = options_.err_disable_on_rate;
    fabric.enable_arp_inspection(cfg);
    fabric.set_event_listener([this](const l2::SwitchEvent& ev) {
        if (ev.kind != l2::SwitchEventKind::kDaiDrop &&
            ev.kind != l2::SwitchEventKind::kDaiRateLimited &&
            ev.kind != l2::SwitchEventKind::kDhcpSnoopDrop) {
            return;
        }
        Alert a;
        a.kind = kind_for(ev.kind);
        a.ip = ev.ip;
        a.claimed_mac = ev.mac;
        a.detail = l2::to_string(ev.kind) + " on port " + std::to_string(ev.port) + ": " +
                   ev.detail;
        alert(std::move(a));
    });
}

}  // namespace arpsec::detect
