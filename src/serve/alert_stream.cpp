#include "serve/alert_stream.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <tuple>

#include "telemetry/json.hpp"

namespace arpsec::serve {

std::string alert_stream_header() {
    telemetry::Json j = telemetry::Json::object();
    j["schema"] = std::string{kAlertStreamSchema};
    return j.dump();
}

void append_alert_line(std::string& out, const detect::Alert& alert) {
    // The compact dump of a telemetry::Json object with these keys in this
    // order, appended directly: shard workers encode every alert. Kind
    // names, dotted quads and MACs never need escaping.
    char at[24];
    const char* at_end = std::to_chars(at, at + sizeof(at), alert.at.nanos()).ptr;
    out += "{\"at_ns\":";
    out.append(at, static_cast<std::size_t>(at_end - at));
    out += ",\"scheme\":";
    telemetry::json_escape(out, alert.scheme);
    out += ",\"kind\":\"";
    out += detect::kind_name(alert.kind);
    out += "\",\"ip\":\"";
    alert.ip.append_to(out);
    out += "\",\"claimed_mac\":\"";
    alert.claimed_mac.append_to(out);
    out += "\",\"previous_mac\":\"";
    alert.previous_mac.append_to(out);
    out += "\",\"detail\":";
    telemetry::json_escape(out, alert.detail);
    out += '}';
}

std::string alert_line(const detect::Alert& alert) {
    std::string out;
    out.reserve(160 + alert.detail.size());
    append_alert_line(out, alert);
    return out;
}

void sort_canonical(std::vector<detect::Alert>& alerts) {
    std::sort(alerts.begin(), alerts.end(), [](const detect::Alert& a, const detect::Alert& b) {
        return std::make_tuple(a.at.nanos(), a.scheme, static_cast<int>(a.kind),
                               a.ip.value(), a.claimed_mac.to_string(),
                               a.previous_mac.to_string(), a.detail) <
               std::make_tuple(b.at.nanos(), b.scheme, static_cast<int>(b.kind),
                               b.ip.value(), b.claimed_mac.to_string(),
                               b.previous_mac.to_string(), b.detail);
    });
}

bool write_alert_file(const std::string& path, std::vector<detect::Alert> alerts) {
    sort_canonical(alerts);
    std::ofstream out{path, std::ios::trunc};
    if (!out) return false;
    out << alert_stream_header() << '\n';
    for (const detect::Alert& a : alerts) out << alert_line(a) << '\n';
    return static_cast<bool>(out);
}

}  // namespace arpsec::serve
