#include "core/matrix.hpp"

namespace arpsec::core {

TextTable traits_matrix(const std::vector<detect::SchemeTraits>& traits) {
    TextTable table("T2a — Scheme comparison (qualitative attributes)");
    table.set_headers({"scheme", "vantage", "detects", "prevents", "proto chg", "infra",
                       "per-host", "crypto", "needs DHCP", "dyn IPs ok", "deploy cost",
                       "runtime cost"});
    for (const auto& t : traits) {
        table.add_row({t.name, detect::to_string(t.vantage), fmt_bool(t.detects),
                       fmt_bool(t.prevents_poisoning), fmt_bool(t.requires_protocol_change),
                       fmt_bool(t.requires_infrastructure), fmt_bool(t.requires_per_host_deploy),
                       fmt_bool(t.uses_cryptography), fmt_bool(t.depends_on_dhcp),
                       fmt_bool(t.handles_dynamic_ips), detect::to_string(t.deployment_cost),
                       detect::to_string(t.runtime_cost)});
    }
    return table;
}

TextTable quantitative_matrix(const std::vector<ScenarioResult>& results,
                              const ScenarioResult* baseline,
                              const ScenarioResult* baseline_dhcp) {
    TextTable table("T2b — Scheme comparison (measured under MITM attack)");
    table.set_headers({"scheme", "attack ok", "intercepted", "delivered", "TP", "FP",
                       "det. latency", "resolve p50 (us)", "ARP bytes", "byte ovh",
                       "crypto ops"});
    for (const auto& r : results) {
        const ScenarioResult* base =
            r.config.addressing == Addressing::kDhcp ? baseline_dhcp : baseline;
        std::string overhead = "-";
        if (base != nullptr && base->total_bytes > 0) {
            const double ratio = static_cast<double>(r.total_bytes) /
                                     static_cast<double>(base->total_bytes) -
                                 1.0;
            overhead = fmt_percent(ratio);
        }
        table.add_row(
            {r.scheme_name, fmt_bool(r.attack_succeeded),
             fmt_percent(r.attack_window.interception_ratio()),
             fmt_percent(r.attack_window.delivery_ratio()),
             std::to_string(r.alerts.true_positives), std::to_string(r.alerts.false_positives),
             r.alerts.detection_latency ? r.alerts.detection_latency->to_string() : "n/a",
             fmt_double(r.resolution_latency_us.median(), 1), std::to_string(r.arp_bytes),
             overhead, std::to_string(r.crypto_ops.total())});
    }
    return table;
}

}  // namespace arpsec::core
