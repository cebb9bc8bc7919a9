// MITM interception walkthrough with packet capture.
//
// Runs the same man-in-the-middle campaign twice on the standard testbed:
//   1. against an unprotected LAN — the attacker silently reads the
//      victim<->gateway conversation while traffic keeps flowing;
//   2. against the same LAN protected by Dynamic ARP Inspection — the
//      switch drops the forged claims and logs the attacker's port.
// Both runs are recorded to pcap files (openable in Wireshark), exercising
// the framework's libpcap-substitution capture path.
//
//   $ ./examples/mitm_interception
//   $ tcpdump -r mitm_unprotected.pcap arp | head

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/runner.hpp"
#include "detect/registry.hpp"
#include "sim/pcap_tap.hpp"

using namespace arpsec;

namespace {

core::ScenarioConfig scenario(core::Addressing addressing) {
    core::ScenarioConfig cfg;
    cfg.seed = 2026;
    cfg.host_count = 4;
    cfg.addressing = addressing;
    cfg.attack = core::AttackKind::kMitm;
    cfg.duration = common::Duration::seconds(40);
    cfg.attack_start = common::Duration::seconds(10);
    cfg.attack_stop = common::Duration::seconds(35);
    cfg.repoison_period = common::Duration::seconds(2);
    return cfg;
}

/// Runs `scheme` with every frame captured to `path`; exits when the
/// capture cannot be written.
core::ScenarioResult run_captured(core::ScenarioRunner& runner, detect::Scheme& scheme,
                                  const char* path, std::size_t& frames) {
    auto writer = wire::PcapWriter::open(path);
    if (!writer.ok()) {
        std::fprintf(stderr, "%s\n", writer.error().c_str());
        std::exit(1);
    }
    sim::PcapTap tap(std::move(writer).value());
    auto result = runner.run_with_tap(scheme, &tap);
    if (auto closed = tap.close(); !closed.ok()) {
        std::fprintf(stderr, "%s\n", closed.error().c_str());
        std::exit(1);
    }
    frames = tap.frames();
    return result;
}

void report(const char* label, const core::ScenarioResult& r, std::size_t pcap_frames,
            const char* pcap_path) {
    std::printf("\n--- %s ---\n", label);
    std::printf("attack window       : %5.1f%% of datagrams intercepted, %5.1f%% delivered\n",
                r.attack_window.interception_ratio() * 100.0,
                r.attack_window.delivery_ratio() * 100.0);
    std::printf("victim cache at end : %s\n",
                r.victim_poisoned_at_end ? "POISONED (gateway -> attacker MAC)" : "clean");
    std::printf("scheme alerts       : %llu true positives, %llu false positives\n",
                static_cast<unsigned long long>(r.alerts.true_positives),
                static_cast<unsigned long long>(r.alerts.false_positives));
    std::printf("capture             : %zu frames -> %s\n", pcap_frames, pcap_path);
}

}  // namespace

int main() {
    std::puts("MITM interception demo: unprotected LAN vs DAI-protected LAN");

    {
        const char* path = "mitm_unprotected.pcap";
        detect::NullScheme scheme;
        core::ScenarioRunner runner(scenario(core::Addressing::kStatic));
        std::size_t frames = 0;
        const auto result = run_captured(runner, scheme, path, frames);
        report("unprotected (classic ARP)", result, frames, path);
    }

    {
        const char* path = "mitm_dai_protected.pcap";
        auto scheme = detect::make_scheme("dai");
        core::ScenarioRunner runner(scenario(core::Addressing::kDhcp));
        runner.alerts().on_alert = [](const detect::Alert& a) {
            static int shown = 0;
            if (shown++ < 3) std::printf("ALERT  %s\n", a.to_string().c_str());
        };
        std::size_t frames = 0;
        const auto result = run_captured(runner, *scheme, path, frames);
        report("protected (DHCP snooping + Dynamic ARP Inspection)", result, frames, path);
    }

    std::puts("\nOpen the pcap files in Wireshark: the unprotected capture shows the");
    std::puts("forged 'is-at' replies and the victim's traffic detouring through the");
    std::puts("attacker; the protected capture shows the forgeries never leaving the");
    std::puts("attacker's switch port.");
    return 0;
}
