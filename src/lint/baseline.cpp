#include "lint/baseline.hpp"

#include "common/file.hpp"

namespace arpsec::lint {

Baseline Baseline::from_violations(const std::vector<Violation>& violations) {
    Baseline b;
    for (const Violation& v : violations) {
        b.entries_.insert({v.file, v.rule, v.snippet});
    }
    return b;
}

common::Expected<Baseline> Baseline::parse(const std::string& text) {
    const auto doc = telemetry::Json::parse(text);
    if (!doc.has_value() || !doc->is_object()) {
        return common::Expected<Baseline>::failure("baseline: not a JSON object");
    }
    const telemetry::Json* schema = doc->find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != "arpsec.lint-baseline.v1") {
        return common::Expected<Baseline>::failure(
            "baseline: missing or unknown schema (want arpsec.lint-baseline.v1)");
    }
    const telemetry::Json* entries = doc->find("entries");
    if (entries == nullptr || !entries->is_array()) {
        return common::Expected<Baseline>::failure("baseline: 'entries' must be an array");
    }
    Baseline b;
    for (const telemetry::Json& item : entries->as_array()) {
        const telemetry::Json* file = item.find("file");
        const telemetry::Json* rule = item.find("rule");
        const telemetry::Json* snippet = item.find("snippet");
        if (file == nullptr || !file->is_string() || rule == nullptr || !rule->is_string() ||
            snippet == nullptr || !snippet->is_string()) {
            return common::Expected<Baseline>::failure(
                "baseline: every entry needs string file/rule/snippet");
        }
        b.entries_.insert({file->as_string(), rule->as_string(), snippet->as_string()});
    }
    return b;
}

common::Expected<Baseline> Baseline::load(const std::string& path) {
    const auto text = common::read_file(path);
    if (!text.ok()) return common::Expected<Baseline>::failure("baseline: " + text.error());
    return parse(text.value());
}

bool Baseline::contains(const Violation& v) const {
    return entries_.count({v.file, v.rule, v.snippet}) != 0;
}

std::vector<Violation> Baseline::filter_new(const std::vector<Violation>& violations) const {
    std::vector<Violation> fresh;
    for (const Violation& v : violations) {
        if (!contains(v)) fresh.push_back(v);
    }
    return fresh;
}

telemetry::Json Baseline::to_json() const {
    telemetry::Json doc = telemetry::Json::object();
    doc["schema"] = "arpsec.lint-baseline.v1";
    doc["entry_count"] = static_cast<std::int64_t>(entries_.size());
    telemetry::Json list = telemetry::Json::array();
    for (const Entry& e : entries_) {
        telemetry::Json item = telemetry::Json::object();
        item["file"] = e.file;
        item["rule"] = e.rule;
        item["snippet"] = e.snippet;
        list.push_back(std::move(item));
    }
    doc["entries"] = std::move(list);
    return doc;
}

}  // namespace arpsec::lint
