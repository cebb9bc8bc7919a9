#pragma once

#include <functional>
#include <string>
#include <vector>

#include "crypto/cost_model.hpp"
#include "detect/alert.hpp"
#include "detect/monitor.hpp"
#include "host/host.hpp"
#include "l2/switch.hpp"
#include "sim/network.hpp"
#include "telemetry/json.hpp"

namespace arpsec::detect {

/// Ground-truth directory entry the harness hands to schemes that require
/// a priori knowledge (static entries, Snort's table, S-ARP/TARP
/// enrollment, DAI static bindings).
struct HostRecord {
    std::string name;
    wire::Ipv4Address ip;
    wire::MacAddress mac;
};

enum class CostBand { kNone, kLow, kMedium, kHigh };
[[nodiscard]] std::string to_string(CostBand c);

/// Where a scheme sits to see and act on traffic.
enum class Vantage {
    kNone,             // nothing deployed (the classic-ARP baseline)
    kHost,             // software on each protected host
    kHostCooperative,  // host software that consults its peers
    kHostServer,       // host software plus a key or ticket server
    kSwitch,           // the managed switch
    kMonitor,          // a station on the switch's mirror port
};
/// The T2 matrix's vantage column: "", "host", "host (cooperative)",
/// "host+server", "switch", "monitor".
[[nodiscard]] std::string to_string(Vantage v);

/// Qualitative attributes of a scheme — the columns of the paper's
/// comparison matrix (experiment T2). Quantitative columns are measured by
/// the harness.
struct SchemeTraits {
    std::string name;
    Vantage vantage = Vantage::kNone;
    bool detects = false;                  // raises alerts
    bool prevents_poisoning = false;       // stops the cache from being poisoned
    bool prevents_flooding = false;        // stops CAM-exhaustion attacks
    bool requires_protocol_change = false; // non-RFC826 ARP on the wire
    bool requires_infrastructure = false;  // managed switch / key server / agent
    bool requires_per_host_deploy = false; // software on every protected host
    bool uses_cryptography = false;
    bool depends_on_dhcp = false;
    /// The scheme's guarantees hinge on a runtime race it can lose (a
    /// verification probe answered in time, a gossip round reaching a
    /// knowledgeable peer): frame loss or CAM interference can silently
    /// defeat it. The DST checker holds only non-best-effort schemes to
    /// the hard never-admit-poison / always-alert invariants.
    bool best_effort = false;
    bool handles_dynamic_ips = true;       // tolerates legitimate rebinding
    CostBand deployment_cost = CostBand::kLow;
    CostBand runtime_cost = CostBand::kNone;
    std::string notes;
};

/// Everything a scheme may use when deployed into a scenario.
struct DeploymentContext {
    sim::Network* net = nullptr;
    l2::Switch* fabric = nullptr;
    AlertSink* alerts = nullptr;
    crypto::CostModel cost;
    crypto::OpCounters* ops = nullptr;
    /// Ground-truth bindings of all legitimate stations (incl. gateway).
    std::vector<HostRecord> directory;
    /// Connects a freshly added infra node's port 0 to a free fabric port
    /// and returns that fabric port. The port is marked trusted.
    std::function<sim::PortId(sim::NodeId)> attach_infra;
    /// Allocates an unused IP for infrastructure nodes (key server etc.).
    std::function<wire::Ipv4Address()> alloc_infra_ip;
};

/// A detection/prevention scheme from the paper's analysis, behind one
/// interface so the evaluation harness can sweep all of them uniformly.
/// Lifecycle per scenario: deploy() once, then protect_host() for every
/// participating host, configure_switch() for the fabric, and
/// attach_monitor() for the mirror-port station.
class Scheme {
public:
    virtual ~Scheme() = default;

    [[nodiscard]] virtual SchemeTraits traits() const = 0;

    virtual void deploy(const DeploymentContext& ctx) { ctx_ = ctx; }
    virtual void protect_host(host::Host& host) { (void)host; }
    virtual void configure_switch(l2::Switch& fabric) { (void)fabric; }
    virtual void attach_monitor(MonitorNode& monitor) { (void)monitor; }

    /// Serializable learned state for serve-mode snapshot/restore
    /// (`arpsec.serve-snapshot.v2`, one entry per shard session). Schemes
    /// whose verdicts depend on accumulated observations (arpwatch's
    /// station DB, active-probe's probes, lease-monitor's leases) override
    /// both so a restarted daemon resumes without re-learning — or
    /// re-alerting on — bindings it already saw. A shard's state holds only
    /// the addresses serve::shard_of() routes to it, so a snapshot restores
    /// only into the same shard count and routing key (the schema version
    /// names the key). Stateless schemes keep the default empty object.
    /// Call restore_state() only after the full lifecycle
    /// (deploy/configure_switch/attach_monitor) has run.
    [[nodiscard]] virtual telemetry::Json snapshot_state() const {
        return telemetry::Json::object();
    }
    virtual void restore_state(const telemetry::Json& state) { (void)state; }

protected:
    void alert(Alert a) {
        if (ctx_.alerts != nullptr) {
            // traits() builds every column, notes included; the name is
            // read once.
            if (name_.empty()) name_ = traits().name;
            a.scheme = name_;
            a.at = ctx_.net != nullptr ? ctx_.net->now() : common::SimTime::zero();
            ctx_.alerts->report(std::move(a));
        }
    }

    DeploymentContext ctx_;

private:
    std::string name_;  // traits().name, cached by the first alert()
};

/// The degenerate baseline: classic ARP with nothing added.
class NullScheme final : public Scheme {
public:
    [[nodiscard]] SchemeTraits traits() const override {
        SchemeTraits t;
        t.name = "none (classic ARP)";
        t.notes = "baseline: stateless, unauthenticated RFC 826";
        return t;
    }
};

}  // namespace arpsec::detect
