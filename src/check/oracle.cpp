#include "check/oracle.hpp"

#include <sstream>

namespace arpsec::check {

telemetry::Json Violation::to_json() const {
    telemetry::Json j = telemetry::Json::object();
    j["oracle"] = oracle;
    j["detail"] = detail;
    j["at_ns"] = at.nanos();
    j["event_index"] =
        event_index == kNoEvent ? static_cast<std::int64_t>(-1)
                                : static_cast<std::int64_t>(event_index);
    return j;
}

bool CheckContext::in_scope(std::size_t station) const {
    if (traits == nullptr) return true;
    // Everything that is not host-resident sees the whole fabric.
    switch (traits->vantage) {
        case detect::Vantage::kHost:
        case detect::Vantage::kHostCooperative:
        case detect::Vantage::kHostServer:
            return station == host_count /*gateway*/ || station < protected_hosts;
        case detect::Vantage::kNone:
        case detect::Vantage::kSwitch:
        case detect::Vantage::kMonitor:
            return true;
    }
    return true;
}

namespace {

std::string station_name(const CheckContext& ctx, std::size_t idx) {
    if (idx == ctx.host_count) return "gateway";
    return "host" + std::to_string(idx);
}

class ConservationOracle final : public Oracle {
public:
    [[nodiscard]] const char* name() const override { return "sim-conservation"; }

    void check(const CheckContext& ctx, std::vector<Violation>& out) const override {
        const sim::TrafficCounters& c = ctx.net->counters();
        if (c.conserved()) return;
        std::ostringstream os;
        os << "frames=" << c.frames << " != delivered=" << c.delivered_frames
           << " + dropped=" << c.dropped_frames << " + in_flight=" << c.in_flight_frames;
        out.push_back({name(), os.str(), ctx.net->now(), ctx.last_event});
    }
};

class TelemetryOracle final : public Oracle {
public:
    [[nodiscard]] const char* name() const override { return "telemetry-consistency"; }

    void check(const CheckContext& ctx, std::vector<Violation>& out) const override {
        const auto fail = [&](const std::string& detail) {
            out.push_back({name(), detail, ctx.net->now(), ctx.last_event});
        };
        const auto expect_counter = [&](const char* metric, std::uint64_t truth) {
            const telemetry::Counter* c = ctx.metrics->find_counter(metric);
            const std::uint64_t got = c != nullptr ? c->value() : 0;
            if (got != truth) {
                std::ostringstream os;
                os << metric << "=" << got << " but the sim counted " << truth;
                fail(os.str());
            }
        };
        const sim::TrafficCounters& c = ctx.net->counters();
        expect_counter("sim.net.frames", c.frames);
        expect_counter("sim.net.dropped_frames", c.dropped_frames);
        expect_counter("sim.net.arp_frames", c.arp_frames);
        expect_counter("sim.net.ipv4_frames", c.ipv4_frames);
        expect_counter("sim.sched.events_executed", ctx.net->scheduler().executed());

        // The alert sink's metric export must agree with the sink itself:
        // total == count(), and the per-kind / per-scheme breakdowns must
        // sum back to the total.
        telemetry::MetricsRegistry fresh;
        ctx.alerts->export_metrics(fresh);
        const telemetry::Counter* total = fresh.find_counter("detect.alerts.total");
        const std::uint64_t exported = total != nullptr ? total->value() : 0;
        if (exported != ctx.alerts->count()) {
            std::ostringstream os;
            os << "detect.alerts.total=" << exported << " but the sink holds "
               << ctx.alerts->count() << " alerts";
            fail(os.str());
        }
        std::uint64_t kind_sum = 0;
        std::uint64_t scheme_sum = 0;
        for (const telemetry::MetricSample& s : fresh.samples()) {
            if (s.kind != telemetry::MetricSample::Kind::kCounter) continue;
            if (s.name.rfind("detect.alerts.kind.", 0) == 0) {
                kind_sum += static_cast<std::uint64_t>(s.value);
            } else if (s.name.rfind("detect.alerts.scheme.", 0) == 0) {
                scheme_sum += static_cast<std::uint64_t>(s.value);
            }
        }
        if (kind_sum != ctx.alerts->count()) {
            std::ostringstream os;
            os << "per-kind alert counters sum to " << kind_sum << ", expected "
               << ctx.alerts->count();
            fail(os.str());
        }
        if (scheme_sum != ctx.alerts->count()) {
            std::ostringstream os;
            os << "per-scheme alert counters sum to " << scheme_sum << ", expected "
               << ctx.alerts->count();
            fail(os.str());
        }
    }
};

class PreventionOracle final : public Oracle {
public:
    [[nodiscard]] const char* name() const override { return "prevention-no-poison"; }

    void check(const CheckContext& ctx, std::vector<Violation>& out) const override {
        if (!ctx.traits->prevents_poisoning) return;
        // Best-effort preventers (Antidote) verify via a probe exchange the
        // attacker can starve (loss, CAM interference from replays); only
        // authoritative preventers promise the hard invariant.
        if (ctx.traits->best_effort) return;
        for (const PoisonObservation& p : *ctx.new_poisons) {
            // Only correct->wrong overwrites of directory bindings are
            // guaranteed: first-contact poisoning of an unknown binding is
            // outside what overwrite-guarding schemes (Anticap) promise,
            // and non-directory IPs are invisible to table-driven schemes
            // (static entries, DAI-static) under DHCP addressing.
            if (!p.overwrite || !p.directory_ip) continue;
            if (!ctx.in_scope(p.station)) continue;
            std::ostringstream os;
            os << station_name(ctx, p.station) << " cached " << p.ip.to_string() << " -> "
               << p.mac.to_string() << " over the correct binding of "
               << station_name(ctx, p.owner) << " despite prevention";
            out.push_back({name(), os.str(), p.at, ctx.last_event});
        }
    }
};

class DetectionOracle final : public Oracle {
public:
    [[nodiscard]] const char* name() const override { return "detection-silent-poison"; }

    void check(const CheckContext& ctx, std::vector<Violation>& out) const override {
        if (!ctx.final_check) return;  // alerts may lag the poisoning
        if (!ctx.traits->detects) return;
        // A DHCP-snooping scheme has no bindings to defend on a static LAN.
        if (ctx.traits->depends_on_dhcp && !ctx.scenario->dhcp) return;
        // A switch scheme that does not do ARP inspection (port security)
        // only sees L2 anomalies — a forgery sent from the attacker's own
        // port with its own source MAC is invisible to it by design.
        switch (ctx.traits->vantage) {
            case detect::Vantage::kSwitch:
                if (!ctx.traits->prevents_poisoning) return;
                break;
            case detect::Vantage::kNone:
            case detect::Vantage::kHost:
            case detect::Vantage::kHostCooperative:
            case detect::Vantage::kHostServer:
            case detect::Vantage::kMonitor:
                break;
        }
        // Best-effort detectors (gossip digests, probe timeouts treated as
        // rebinds) cannot promise an alert for every observable poisoning.
        if (ctx.traits->best_effort) return;
        if (ctx.alerts->count() > 0) return;
        for (const PoisonObservation& p : *ctx.all_poisons) {
            // Only demand an alert for poisonings the scheme had both the
            // vantage and the prior knowledge to recognize: a successful
            // overwrite of a directory binding that was legitimately
            // announced on the wire.
            if (!p.overwrite || !p.directory_ip || !p.announced) continue;
            if (!ctx.in_scope(p.station)) continue;
            std::ostringstream os;
            os << station_name(ctx, p.station) << " was silently poisoned ("
               << p.ip.to_string() << " -> " << p.mac.to_string() << " at "
               << p.at.to_string() << ") and no alert fired by the end of the run";
            out.push_back({name(), os.str(), ctx.net->now(), ctx.last_event});
            return;  // one silent-poison finding per run is enough
        }
    }
};

}  // namespace

std::vector<std::unique_ptr<Oracle>> default_oracles() {
    std::vector<std::unique_ptr<Oracle>> v;
    v.push_back(std::make_unique<ConservationOracle>());
    v.push_back(std::make_unique<TelemetryOracle>());
    v.push_back(std::make_unique<PreventionOracle>());
    v.push_back(std::make_unique<DetectionOracle>());
    return v;
}

}  // namespace arpsec::check
