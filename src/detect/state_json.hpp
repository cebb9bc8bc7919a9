#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "telemetry/json.hpp"
#include "wire/ipv4_address.hpp"
#include "wire/mac_address.hpp"

/// Helpers for the schemes' snapshot_state()/restore_state() rows. Readers
/// return nullopt for a missing or malformed field, so a bad row costs the
/// restore one entry, never the whole table.
namespace arpsec::detect::state_json {

inline std::optional<wire::Ipv4Address> ip(const telemetry::Json& row, const std::string& key) {
    const telemetry::Json* v = row.find(key);
    if (v == nullptr || !v->is_string()) return std::nullopt;
    const auto parsed = wire::Ipv4Address::parse(v->as_string());
    if (!parsed.ok()) return std::nullopt;
    return parsed.value();
}

inline std::optional<wire::MacAddress> mac(const telemetry::Json& row, const std::string& key) {
    const telemetry::Json* v = row.find(key);
    if (v == nullptr || !v->is_string()) return std::nullopt;
    const auto parsed = wire::MacAddress::parse(v->as_string());
    if (!parsed.ok()) return std::nullopt;
    return parsed.value();
}

inline std::optional<common::SimTime> time(const telemetry::Json& row, const std::string& key) {
    const telemetry::Json* v = row.find(key);
    if (v == nullptr || !v->is_number()) return std::nullopt;
    return common::SimTime{v->as_int()};
}

/// The object rows of `state[key]` (empty when it is missing or no array).
inline std::vector<const telemetry::Json*> rows(const telemetry::Json& state,
                                                const std::string& key) {
    std::vector<const telemetry::Json*> out;
    const telemetry::Json* v = state.find(key);
    if (v == nullptr || !v->is_array()) return out;
    for (const telemetry::Json& row : v->as_array()) {
        if (row.is_object()) out.push_back(&row);
    }
    return out;
}

/// The entries of an Ipv4Address-keyed hash map in address order, so
/// identical state snapshots byte-identically (the snapshot artifact is
/// subject to the repo's determinism contract).
template <typename Map>
std::vector<typename Map::const_pointer> by_ip(const Map& map) {
    std::vector<typename Map::const_pointer> out;
    out.reserve(map.size());
    for (const auto& entry : map) out.push_back(&entry);
    std::sort(out.begin(), out.end(),
              [](const auto* a, const auto* b) { return a->first.value() < b->first.value(); });
    return out;
}

}  // namespace arpsec::detect::state_json
