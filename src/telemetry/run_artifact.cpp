#include "telemetry/run_artifact.hpp"

#include "common/file.hpp"

namespace arpsec::telemetry {

void RunArtifact::set_meta(const std::string& key, Json value) {
    meta_[key] = std::move(value);
}

Json RunArtifact::to_json() const {
    Json root = Json::object();
    root["schema"] = kSchema;
    root["producer"] = producer_;
    if (meta_.size() > 0) root["meta"] = meta_;
    root["runs"] = runs_;
    return root;
}

bool RunArtifact::write(const std::string& path) const {
    return common::write_file(path, to_json().dump(2) + "\n").ok();
}

}  // namespace arpsec::telemetry
