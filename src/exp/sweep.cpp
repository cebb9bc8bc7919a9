#include "exp/sweep.hpp"

#include <stdexcept>

#include "common/file.hpp"
#include "core/artifact.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "detect/registry.hpp"
#include "exp/executor.hpp"

namespace arpsec::exp {

namespace {

std::vector<std::string> effective_schemes(const SweepSpec& spec) {
    return spec.schemes.empty() ? std::vector<std::string>{""} : spec.schemes;
}

std::vector<std::uint64_t> effective_seeds(const SweepSpec& spec) {
    return spec.seeds.empty() ? std::vector<std::uint64_t>{1} : spec.seeds;
}

telemetry::Json axes_json(const std::vector<std::pair<std::string, std::string>>& values) {
    telemetry::Json obj = telemetry::Json::object();
    for (const auto& [name, value] : values) obj[name] = value;
    return obj;
}

telemetry::Json summary_json(const common::Summary& s) {
    telemetry::Json obj = telemetry::Json::object();
    obj["count"] = static_cast<std::int64_t>(s.count());
    obj["mean"] = s.mean();
    obj["stddev"] = s.stddev();
    obj["min"] = s.min();
    obj["max"] = s.max();
    return obj;
}

}  // namespace

// ---- Point ----------------------------------------------------------------

const std::string& Point::at(std::string_view axis) const {
    for (const auto& [name, value] : axis_values) {
        if (name == axis) return value;
    }
    throw std::out_of_range("sweep point has no axis '" + std::string{axis} + "'");
}

double Point::at_double(std::string_view axis) const { return std::stod(at(axis)); }

std::int64_t Point::at_int(std::string_view axis) const { return std::stoll(at(axis)); }

// ---- SweepSpec ------------------------------------------------------------

std::size_t SweepSpec::points_per_scheme() const {
    std::size_t n = effective_seeds(*this).size();
    for (const auto& axis : axes) n *= axis.values.size();
    return n;
}

std::size_t SweepSpec::point_count() const {
    return effective_schemes(*this).size() * points_per_scheme();
}

std::vector<Point> SweepSpec::enumerate() const {
    std::vector<Point> out;
    for (const auto& axis : axes) {
        if (axis.values.empty()) return out;  // empty cross product
    }
    const auto schemes_eff = effective_schemes(*this);
    const auto seeds_eff = effective_seeds(*this);
    out.reserve(point_count());

    std::size_t index = 0;
    for (const auto& scheme_name : schemes_eff) {
        std::vector<std::size_t> pos(axes.size(), 0);
        bool done = false;
        while (!done) {
            for (std::size_t r = 0; r < seeds_eff.size(); ++r) {
                Point p;
                p.index = index++;
                p.scheme = scheme_name;
                p.seed = seeds_eff[r];
                p.replicate = r;
                p.axis_values.reserve(axes.size());
                for (std::size_t a = 0; a < axes.size(); ++a) {
                    p.axis_values.emplace_back(axes[a].name, axes[a].values[pos[a]]);
                }
                out.push_back(std::move(p));
            }
            // Mixed-radix increment, last axis fastest (row-major).
            done = true;
            for (std::size_t a = axes.size(); a-- > 0;) {
                if (++pos[a] < axes[a].values.size()) {
                    done = false;
                    break;
                }
                pos[a] = 0;
            }
        }
    }
    return out;
}

telemetry::Json SweepSpec::to_json() const {
    telemetry::Json doc = telemetry::Json::object();
    doc["name"] = name;
    telemetry::Json scheme_list = telemetry::Json::array();
    for (const auto& s : schemes) scheme_list.push_back(s);
    doc["schemes"] = std::move(scheme_list);
    telemetry::Json axis_list = telemetry::Json::array();
    for (const auto& axis : axes) {
        telemetry::Json a = telemetry::Json::object();
        a["name"] = axis.name;
        telemetry::Json vals = telemetry::Json::array();
        for (const auto& v : axis.values) vals.push_back(v);
        a["values"] = std::move(vals);
        axis_list.push_back(std::move(a));
    }
    doc["axes"] = std::move(axis_list);
    telemetry::Json seed_list = telemetry::Json::array();
    for (const auto s : seeds) seed_list.push_back(static_cast<std::int64_t>(s));
    doc["seeds"] = std::move(seed_list);
    return doc;
}

// ---- Measures -------------------------------------------------------------

std::vector<std::pair<std::string, double>> standard_measures(const core::ScenarioResult& r) {
    std::vector<std::pair<std::string, double>> m = {
        {"attack_succeeded", r.attack_succeeded ? 1.0 : 0.0},
        {"poisoned_at_end", r.victim_poisoned_at_end ? 1.0 : 0.0},
        {"detected", r.alerts.true_positives > 0 ? 1.0 : 0.0},
        {"true_positives", static_cast<double>(r.alerts.true_positives)},
        {"false_positives", static_cast<double>(r.alerts.false_positives)},
        {"interception", r.attack_window.interception_ratio()},
        {"delivery", r.attack_window.delivery_ratio()},
        {"benign_delivery", r.benign_window.delivery_ratio()},
        {"resolve_p50_us", r.resolution_latency_us.median()},
        {"total_bytes", static_cast<double>(r.total_bytes)},
        {"arp_bytes", static_cast<double>(r.arp_bytes)},
        {"crypto_ops", static_cast<double>(r.crypto_ops.total())},
        {"events_executed", static_cast<double>(r.events_executed)},
    };
    if (r.alerts.detection_latency) {
        m.emplace_back("detection_latency_ms", r.alerts.detection_latency->to_millis());
    }
    return m;
}

const common::Summary* Aggregate::measure(std::string_view name) const {
    for (const auto& [key, summary] : measures) {
        if (key == name) return &summary;
    }
    return nullptr;
}

// ---- Execution ------------------------------------------------------------

SweepOutcome run_sweep(const SweepSpec& spec, const SweepOptions& opt) {
    SweepOutcome out;
    out.spec = spec;
    auto points = spec.enumerate();
    out.points.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        out.points[i].point = std::move(points[i]);
    }

    const auto errors = run_indexed(out.points.size(), opt.jobs, [&](std::size_t i) {
        PointRun& pr = out.points[i];
        if (!spec.configure) throw std::runtime_error("sweep spec has no configure function");
        core::ScenarioConfig cfg = spec.configure(pr.point);
        std::unique_ptr<detect::Scheme> scheme;
        if (spec.factory) {
            scheme = spec.factory(pr.point);
        } else if (pr.point.scheme.empty()) {
            scheme = std::make_unique<detect::NullScheme>();
        } else {
            scheme = detect::make_scheme(pr.point.scheme);
        }
        if (scheme == nullptr) {
            throw std::runtime_error("unknown scheme '" + pr.point.scheme + "'");
        }
        core::ScenarioRunner runner(cfg);
        pr.result = runner.run(*scheme);
        pr.run = core::run_json(pr.result, &runner.metrics());
    });
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (errors[i].empty()) continue;
        out.points[i].failed = true;
        out.points[i].error = errors[i];
    }

    // Replicate aggregation: each group of |seeds| consecutive points is
    // one (scheme × axis point). Built post-hoc from the ordered runs, so
    // the aggregates are independent of worker scheduling too.
    const std::size_t nseeds = effective_seeds(spec).size();
    for (std::size_t base = 0; base + nseeds <= out.points.size(); base += nseeds) {
        Aggregate agg;
        agg.scheme = out.points[base].point.scheme;
        agg.axis_values = out.points[base].point.axis_values;
        for (std::size_t r = 0; r < nseeds; ++r) {
            const PointRun& pr = out.points[base + r];
            if (pr.failed) continue;
            ++agg.replicates;
            for (const auto& [name, value] : standard_measures(pr.result)) {
                common::Summary* summary = nullptr;
                for (auto& [key, s] : agg.measures) {
                    if (key == name) {
                        summary = &s;
                        break;
                    }
                }
                if (summary == nullptr) {
                    agg.measures.emplace_back(name, common::Summary{});
                    summary = &agg.measures.back().second;
                }
                summary->add(value);
            }
        }
        out.aggregates.push_back(std::move(agg));
    }
    return out;
}

// ---- SweepOutcome ---------------------------------------------------------

namespace {

std::size_t scheme_index(const SweepSpec& spec, std::string_view scheme) {
    const auto schemes_eff = effective_schemes(spec);
    for (std::size_t i = 0; i < schemes_eff.size(); ++i) {
        if (schemes_eff[i] == scheme) return i;
    }
    throw std::out_of_range("sweep has no scheme '" + std::string{scheme} + "'");
}

std::size_t axis_offset(const SweepSpec& spec, const std::vector<std::string>& values) {
    if (values.size() != spec.axes.size()) {
        throw std::out_of_range("axis value count does not match the spec");
    }
    std::size_t offset = 0;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        std::size_t vi = spec.axes[a].values.size();
        for (std::size_t v = 0; v < spec.axes[a].values.size(); ++v) {
            if (spec.axes[a].values[v] == values[a]) {
                vi = v;
                break;
            }
        }
        if (vi == spec.axes[a].values.size()) {
            throw std::out_of_range("axis '" + spec.axes[a].name + "' has no value '" +
                                    values[a] + "'");
        }
        offset = offset * spec.axes[a].values.size() + vi;
    }
    return offset;
}

}  // namespace

const PointRun& SweepOutcome::at(std::string_view scheme,
                                 const std::vector<std::string>& values,
                                 std::size_t replicate) const {
    const std::size_t nseeds = effective_seeds(spec).size();
    const std::size_t index = scheme_index(spec, scheme) * spec.points_per_scheme() +
                              axis_offset(spec, values) * nseeds + replicate;
    return points.at(index);
}

const Aggregate& SweepOutcome::aggregate_at(std::string_view scheme,
                                            const std::vector<std::string>& values) const {
    const std::size_t nseeds = effective_seeds(spec).size();
    const std::size_t per_scheme = spec.points_per_scheme() / nseeds;
    return aggregates.at(scheme_index(spec, scheme) * per_scheme + axis_offset(spec, values));
}

std::size_t SweepOutcome::failures() const {
    std::size_t n = 0;
    for (const auto& pr : points) n += pr.failed ? 1 : 0;
    return n;
}

telemetry::Json SweepOutcome::to_json() const {
    telemetry::Json doc = telemetry::Json::object();
    doc["spec"] = spec.to_json();

    telemetry::Json point_list = telemetry::Json::array();
    for (const auto& pr : points) {
        telemetry::Json p = telemetry::Json::object();
        p["index"] = static_cast<std::int64_t>(pr.point.index);
        if (!pr.point.scheme.empty()) p["scheme"] = pr.point.scheme;
        p["seed"] = static_cast<std::int64_t>(pr.point.seed);
        p["replicate"] = static_cast<std::int64_t>(pr.point.replicate);
        if (!pr.point.axis_values.empty()) p["axes"] = axes_json(pr.point.axis_values);
        p["failed"] = pr.failed;
        if (pr.failed) {
            p["error"] = pr.error;
        } else {
            p["run"] = pr.run;
        }
        point_list.push_back(std::move(p));
    }
    doc["points"] = std::move(point_list);

    telemetry::Json agg_list = telemetry::Json::array();
    for (const auto& agg : aggregates) {
        telemetry::Json a = telemetry::Json::object();
        if (!agg.scheme.empty()) a["scheme"] = agg.scheme;
        if (!agg.axis_values.empty()) a["axes"] = axes_json(agg.axis_values);
        a["replicates"] = static_cast<std::int64_t>(agg.replicates);
        telemetry::Json measures = telemetry::Json::object();
        for (const auto& [name, summary] : agg.measures) {
            measures[name] = summary_json(summary);
        }
        a["measures"] = std::move(measures);
        agg_list.push_back(std::move(a));
    }
    doc["aggregates"] = std::move(agg_list);
    return doc;
}

// ---- SweepArtifact --------------------------------------------------------

void SweepArtifact::set_meta(const std::string& key, telemetry::Json value) {
    meta_[key] = std::move(value);
}

telemetry::Json SweepArtifact::to_json() const {
    telemetry::Json root = telemetry::Json::object();
    root["schema"] = kSchema;
    root["producer"] = producer_;
    if (meta_.size() > 0) root["meta"] = meta_;
    root["sweeps"] = sweeps_;
    return root;
}

bool SweepArtifact::write(const std::string& path) const {
    return common::write_file(path, to_json().dump(2) + "\n").ok();
}

std::string fmt_mean_sd(const common::Summary* s, int precision) {
    if (s == nullptr || s->empty()) return "n/a";
    if (s->count() < 2) return core::fmt_double(s->mean(), precision);
    return core::fmt_double(s->mean(), precision) + " ±" +
           core::fmt_double(s->stddev(), precision);
}

}  // namespace arpsec::exp
