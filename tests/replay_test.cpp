#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/version.hpp"
#include "detect/active_probe.hpp"
#include "detect/arpwatch.hpp"
#include "detect/lease_monitor.hpp"
#include "detect/registry.hpp"
#include "replay/engine.hpp"
#include "replay/session.hpp"
#include "replay/source.hpp"
#include "replay/trace.hpp"
#include "serve/alert_stream.hpp"
#include "wire/dhcp_message.hpp"
#include "wire/udp_datagram.hpp"

namespace arpsec::replay {
namespace {

ScenarioTraceSource::Options small_options(std::size_t jobs = 1) {
    ScenarioTraceSource::Options opts;
    opts.first_seed = 1;
    opts.target_frames = 600;
    opts.jobs = jobs;
    return opts;
}

LabeledTrace load_small(std::size_t jobs = 1) {
    auto trace = ScenarioTraceSource{small_options(jobs)}.load();
    EXPECT_TRUE(trace.ok()) << trace.error();
    return trace.value();
}

void write_text(const std::string& path, const std::string& text) {
    std::ofstream out{path};
    out << text;
    ASSERT_TRUE(out.good()) << path;
}

bool traces_identical(const LabeledTrace& a, const LabeledTrace& b) {
    if (a.frames.size() != b.frames.size()) return false;
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
        if (a.frames[i].at.nanos() != b.frames[i].at.nanos()) return false;
        if (a.frames[i].bytes != b.frames[i].bytes) return false;
        if (a.frames[i].attack != b.frames[i].attack) return false;
    }
    if (a.directory.size() != b.directory.size()) return false;
    for (std::size_t i = 0; i < a.directory.size(); ++i) {
        if (a.directory[i].name != b.directory[i].name) return false;
        if (!(a.directory[i].ip == b.directory[i].ip)) return false;
        if (!(a.directory[i].mac == b.directory[i].mac)) return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Labels sidecar
// ---------------------------------------------------------------------------

TEST(TraceLabelsTest, JsonRoundTripPreservesEverything) {
    const LabeledTrace trace = load_small();
    const TraceLabels labels = labels_of(trace);
    EXPECT_EQ(labels.frame_count, trace.frames.size());
    EXPECT_EQ(labels.attack_frames.size(), trace.attack_count());
    EXPECT_FALSE(labels.directory.empty());

    const std::string text = labels.to_json("replay_test").dump(2);
    const auto parsed = TraceLabels::parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_EQ(parsed->seed, labels.seed);
    EXPECT_EQ(parsed->frame_count, labels.frame_count);
    EXPECT_EQ(parsed->attack_frames, labels.attack_frames);
    ASSERT_EQ(parsed->directory.size(), labels.directory.size());
    for (std::size_t i = 0; i < labels.directory.size(); ++i) {
        EXPECT_EQ(parsed->directory[i].name, labels.directory[i].name);
        EXPECT_EQ(parsed->directory[i].ip, labels.directory[i].ip);
        EXPECT_EQ(parsed->directory[i].mac, labels.directory[i].mac);
    }
}

TEST(TraceLabelsTest, RejectsWrongSchemaAndGarbage) {
    EXPECT_FALSE(TraceLabels::parse("not json at all").ok());
    EXPECT_FALSE(TraceLabels::parse("{\"schema\": \"some.other.schema\"}").ok());
    EXPECT_FALSE(TraceLabels::parse("{}").ok());
}

TEST(TraceLabelsTest, JoinRejectsDisagreeingSidecar) {
    // µs-aligned, so the disk round trip is exact.
    LabeledTrace trace = load_small();
    for (TraceFrame& f : trace.frames) f.at = common::SimTime{f.at.nanos() / 1000 * 1000};
    const std::size_t n = trace.frames.size();
    wire::PcapTrace pcap;
    for (const auto& f : trace.frames) {
        pcap.records.push_back(
            {f.at, static_cast<std::uint32_t>(f.bytes.size()), f.bytes});
    }
    const std::string path = ::testing::TempDir() + "/arpsec_replay_join.pcap";
    const std::string labels_path = path + ".labels.json";
    ASSERT_TRUE(write_trace(trace, path, labels_path, "replay_test").ok());

    // join_labels copies the records of a parsed pcap, so every call sees
    // `pcap` whole; PcapFileSource streams them from disk. Both apply the
    // sidecar through label_frames and must refuse it with the same error.
    for (const bool from_disk : {false, true}) {
        SCOPED_TRACE(from_disk ? "PcapFileSource::load" : "join_labels");
        const auto join = [&](const TraceLabels& labels) {
            if (!from_disk) return join_labels(pcap, labels, path);
            write_text(labels_path, labels.to_json("replay_test").dump(2));
            return PcapFileSource{path, labels_path}.load();
        };

        TraceLabels wrong_count = labels_of(trace);
        wrong_count.frame_count += 1;
        const auto counted = join(wrong_count);
        ASSERT_FALSE(counted.ok());
        EXPECT_EQ(counted.error(), "labels: frame_count " + std::to_string(n + 1) +
                                       " does not match pcap record count " +
                                       std::to_string(n));

        TraceLabels bad_index = labels_of(trace);
        bad_index.attack_frames.push_back(n);  // out of range
        const auto indexed = join(bad_index);
        ASSERT_FALSE(indexed.ok());
        EXPECT_EQ(indexed.error(), "labels: attack frame index " + std::to_string(n) +
                                       " out of range (" + std::to_string(n) + " frames)");

        const auto joined = join(labels_of(trace));
        ASSERT_TRUE(joined.ok()) << joined.error();
        EXPECT_TRUE(traces_identical(joined.value(), trace));
        EXPECT_EQ(joined->origin, path);
    }
    std::remove(path.c_str());
    std::remove(labels_path.c_str());
}

// ---------------------------------------------------------------------------
// ScenarioTraceSource
// ---------------------------------------------------------------------------

TEST(ScenarioTraceSourceTest, ReachesTargetWithLabeledAttacks) {
    const LabeledTrace trace = load_small();
    EXPECT_GE(trace.frames.size(), 600u);
    EXPECT_GT(trace.attack_count(), 0u);
    EXPECT_LT(trace.attack_count(), trace.frames.size());
    EXPECT_FALSE(trace.directory.empty());
    EXPECT_EQ(trace.origin, "scenario-gen");
    // Timestamps are monotonically non-decreasing across epoch boundaries.
    for (std::size_t i = 1; i < trace.frames.size(); ++i) {
        EXPECT_LE(trace.frames[i - 1].at.nanos(), trace.frames[i].at.nanos())
            << "frame " << i;
    }
}

TEST(ScenarioTraceSourceTest, IdenticalForAnyJobsValue) {
    const LabeledTrace serial = load_small(1);
    const LabeledTrace fanned = load_small(3);
    EXPECT_TRUE(traces_identical(serial, fanned));
}

// ---------------------------------------------------------------------------
// write_trace + PcapFileSource
// ---------------------------------------------------------------------------

TEST(PcapFileSourceTest, RoundTripsThroughDisk) {
    // The small trace fits in two read chunks; the large one spans many,
    // so records straddle chunk boundaries.
    for (const std::size_t target_frames : {std::size_t{600}, std::size_t{3000}}) {
        SCOPED_TRACE("target_frames " + std::to_string(target_frames));
        ScenarioTraceSource::Options opts = small_options();
        opts.target_frames = target_frames;
        const auto generated = ScenarioTraceSource{opts}.load();
        ASSERT_TRUE(generated.ok()) << generated.error();
        const LabeledTrace& trace = generated.value();
        std::size_t pcap_bytes = wire::PcapReader::kGlobalHeaderSize;
        for (const TraceFrame& f : trace.frames) {
            pcap_bytes += wire::PcapReader::kRecordHeaderSize + f.bytes.size();
        }
        if (target_frames > 600) {
            EXPECT_GT(pcap_bytes, 4 * wire::PcapReader::kChunkSize);
        }

        const std::string pcap = ::testing::TempDir() + "/arpsec_replay_rt.pcap";
        const std::string labels = pcap + ".labels.json";
        const auto wrote = write_trace(trace, pcap, labels, "replay_test");
        ASSERT_TRUE(wrote.ok()) << wrote.error();

        auto loaded = PcapFileSource{pcap, labels}.load();
        ASSERT_TRUE(loaded.ok()) << loaded.error();
        EXPECT_EQ(loaded->origin, pcap);
        EXPECT_EQ(loaded->seed, trace.seed);
        ASSERT_EQ(loaded->frames.size(), trace.frames.size());
        for (std::size_t i = 0; i < trace.frames.size(); ++i) {
            EXPECT_EQ(loaded->frames[i].bytes, trace.frames[i].bytes) << "frame " << i;
            EXPECT_EQ(loaded->frames[i].attack, trace.frames[i].attack) << "frame " << i;
            // Classic pcap stores microseconds: timestamps survive the disk
            // round trip at µs resolution, sub-µs digits are truncated.
            EXPECT_EQ(loaded->frames[i].at.nanos(),
                      trace.frames[i].at.nanos() / 1000 * 1000)
                << "frame " << i;
        }
        ASSERT_EQ(loaded->directory.size(), trace.directory.size());
        for (std::size_t i = 0; i < trace.directory.size(); ++i) {
            EXPECT_EQ(loaded->directory[i].name, trace.directory[i].name);
            EXPECT_EQ(loaded->directory[i].ip, trace.directory[i].ip);
            EXPECT_EQ(loaded->directory[i].mac, trace.directory[i].mac);
        }
        std::remove(pcap.c_str());
        std::remove(labels.c_str());
    }
}

TEST(PcapFileSourceTest, MissingSidecarIsATypedError) {
    const auto loaded =
        PcapFileSource{"/nonexistent.pcap", "/nonexistent.labels.json"}.load();
    ASSERT_FALSE(loaded.ok());
    EXPECT_FALSE(loaded.error().empty());
}

TEST(PcapFileSourceTest, UnreadableSidecarIsAnIoError) {
    // A directory opens but cannot be read: an I/O error, not bad JSON.
    const LabeledTrace trace = load_small();
    const std::string pcap = ::testing::TempDir() + "/arpsec_replay_dir_sidecar.pcap";
    const std::string dir = ::testing::TempDir();
    ASSERT_TRUE(write_trace(trace, pcap, pcap + ".labels.json", "replay_test").ok());
    const auto loaded = PcapFileSource{pcap, dir}.load();
    std::remove(pcap.c_str());
    std::remove((pcap + ".labels.json").c_str());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error(), "labels: cannot read '" + dir + "'");
}

TEST(PcapFileSourceTest, RefusesNonEthernetCapture) {
    // A Linux-cooked capture (LINKTYPE_LINUX_SLL, 113) with one record: the
    // schemes would mis-parse its frames as Ethernet.
    wire::Bytes data;
    const auto le32 = [&data](std::uint32_t v) {
        for (int shift = 0; shift < 32; shift += 8) {
            data.push_back(static_cast<std::uint8_t>(v >> shift));
        }
    };
    le32(0xa1b2c3d4u);
    le32(0x00040002u);  // version 2.4
    le32(0);            // thiszone
    le32(0);            // sigfigs
    le32(65535);        // snaplen
    le32(113);          // LINKTYPE_LINUX_SLL
    le32(1);            // ts_sec
    le32(0);            // ts_usec
    le32(16);           // incl_len
    le32(16);           // orig_len
    data.insert(data.end(), 16, 0x00);
    const std::string pcap = ::testing::TempDir() + "/arpsec_replay_sll.pcap";
    const std::string labels = pcap + ".labels.json";
    write_text(pcap, std::string(data.begin(), data.end()));
    TraceLabels sidecar;
    sidecar.frame_count = 1;
    write_text(labels, sidecar.to_json("replay_test").dump(2));

    const auto loaded = PcapFileSource{pcap, labels}.load();
    std::remove(pcap.c_str());
    std::remove(labels.c_str());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error(), "pcap: unsupported link type 113 (want 1, Ethernet)");
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(EngineTest, MonitorSchemeScoresWellOnItsOwnTraffic) {
    const LabeledTrace trace = load_small();
    const detect::Registry registry;
    const Engine engine{registry};

    const auto score = engine.run(trace, "arpwatch");
    ASSERT_TRUE(score.ok()) << score.error();
    EXPECT_EQ(score->scheme, "arpwatch");
    EXPECT_EQ(score->frames, trace.frames.size());
    EXPECT_EQ(score->malformed, 0u);
    EXPECT_EQ(score->attack_frames, trace.attack_count());
    EXPECT_GT(score->alerts, 0u);
    EXPECT_GT(score->detected_attacks, 0u);
    EXPECT_GE(score->precision, 0.0);
    EXPECT_LE(score->precision, 1.0);
    EXPECT_GT(score->recall, 0.0);
    EXPECT_LE(score->recall, 1.0);
}

TEST(EngineTest, NullSchemeNeverAlerts) {
    const LabeledTrace trace = load_small();
    const detect::Registry registry;
    const auto score = Engine{registry}.run(trace, "none");
    ASSERT_TRUE(score.ok()) << score.error();
    EXPECT_EQ(score->alerts, 0u);
    EXPECT_EQ(score->precision, 1.0);  // vacuous: no alerts fired
    EXPECT_EQ(score->recall, 0.0);     // attacks exist, none detected
}

TEST(EngineTest, UnknownSchemeIsATypedError) {
    const LabeledTrace trace = load_small();
    const detect::Registry registry;
    const Engine engine{registry};
    const auto score = engine.run(trace, "no-such-scheme");
    ASSERT_FALSE(score.ok());
    EXPECT_NE(score.error().find("no-such-scheme"), std::string::npos)
        << score.error();

    // Among known names, an unknown one fails only its own slot; the others
    // score exactly as they do alone.
    const std::vector<std::string> schemes{"arpwatch", "no-such-scheme", "none",
                                           "snort-arpspoof"};
    for (const std::size_t jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const auto outcomes = engine.run_all(trace, schemes, jobs);
        ASSERT_EQ(outcomes.size(), schemes.size());
        EXPECT_TRUE(outcomes[1].failed);
        EXPECT_NE(outcomes[1].error.find("no-such-scheme"), std::string::npos)
            << outcomes[1].error;
        for (const std::size_t i : {0u, 2u, 3u}) {
            ASSERT_FALSE(outcomes[i].failed) << schemes[i] << ": " << outcomes[i].error;
            const auto alone = engine.run(trace, schemes[i]);
            ASSERT_TRUE(alone.ok()) << alone.error();
            EXPECT_EQ(outcomes[i].value.to_json().dump(2), alone->to_json().dump(2))
                << schemes[i];
        }
    }
}

// Pcap capture order is not timestamp order: a multi-segment capture can
// interleave records, so the attack timestamps the engine collects in frame
// order may be non-monotone. Scoring binary-searches those timestamps, which
// silently misclassifies alerts unless they are sorted first. This trace is
// built so the alert is justified only by the *earlier* attack, while the
// *later* attack appears first in capture order — the exact shape an
// unsorted lower_bound gets wrong.
TEST(EngineTest, NonMonotoneCaptureOrderStillScoresByTimestamp) {
    using common::Duration;
    using common::SimTime;

    const wire::MacAddress mac_a = wire::MacAddress::local(1);
    const wire::MacAddress mac_b = wire::MacAddress::local(2);
    const wire::MacAddress mac_c = wire::MacAddress::local(3);
    const wire::MacAddress mac_d = wire::MacAddress::local(4);

    auto announce = [](wire::MacAddress mac, wire::Ipv4Address ip) {
        wire::EthernetFrame f;
        f.dst = wire::MacAddress::broadcast();
        f.src = mac;
        f.ether_type = wire::EtherType::kArp;
        f.payload = wire::ArpPacket::gratuitous(mac, ip, /*as_reply=*/false).serialize();
        return f.serialize();
    };

    LabeledTrace trace;
    trace.origin = "handcrafted";
    trace.seed = 7;
    // Arpwatch learns 10.0.0.1 -> A, then two labeled attacks arrive with
    // *descending* timestamps (1000 ms before 200 ms in capture order), and
    // finally a conflicting claim for 10.0.0.1 fires the alert at 1050 ms.
    trace.frames.push_back(
        {SimTime{} + Duration::millis(5), announce(mac_a, {10, 0, 0, 1}), false});
    trace.frames.push_back(
        {SimTime{} + Duration::millis(1000), announce(mac_c, {10, 0, 0, 2}), true});
    trace.frames.push_back(
        {SimTime{} + Duration::millis(200), announce(mac_d, {10, 0, 0, 3}), true});
    trace.frames.push_back(
        {SimTime{} + Duration::millis(1050), announce(mac_b, {10, 0, 0, 1}), false});

    const detect::Registry registry;
    EngineOptions opts;
    // Narrow window: only the attack at 1000 ms can justify the 1050 ms
    // alert; the one at 200 ms is out of range.
    opts.match_window = Duration::millis(100);
    const auto score = Engine{registry, opts}.run(trace, "arpwatch");
    ASSERT_TRUE(score.ok()) << score.error();

    EXPECT_EQ(score->frames, 4u);
    EXPECT_EQ(score->malformed, 0u);
    EXPECT_EQ(score->attack_frames, 2u);
    EXPECT_EQ(score->alerts, 1u);
    // Justified by the attack at 1000 ms (within [950, 1050]) even though
    // that attack appears before the 200 ms one in capture order.
    EXPECT_EQ(score->true_positive_alerts, 1u);
    EXPECT_EQ(score->false_positive_alerts, 0u);
    EXPECT_EQ(score->precision, 1.0);
    // Only the 1000 ms attack has an alert inside its window.
    EXPECT_EQ(score->detected_attacks, 1u);
    EXPECT_EQ(score->recall, 0.5);
}

// A gratuitous ARP request: `mac` claims `ip`.
wire::Bytes announce(wire::MacAddress mac, wire::Ipv4Address ip) {
    wire::EthernetFrame f;
    f.dst = wire::MacAddress::broadcast();
    f.src = mac;
    f.ether_type = wire::EtherType::kArp;
    f.payload = wire::ArpPacket::gratuitous(mac, ip, /*as_reply=*/false).serialize();
    return f.serialize();
}

wire::FrameView view_of(const wire::Bytes& bytes) {
    return wire::FrameView{wire::FrameBuffer::capture(std::span<const std::uint8_t>(bytes))};
}

common::SimTime ms(std::int64_t n) { return common::SimTime{} + common::Duration::millis(n); }

// `state` after a dump/parse round trip: the shape it takes inside a
// serve snapshot file.
telemetry::Json round_tripped(const telemetry::Json& state) {
    auto parsed = telemetry::Json::parse(state.dump(2));
    EXPECT_TRUE(parsed.has_value());
    return parsed.value_or(telemetry::Json::object());
}

TEST(SchemeSessionTest, ArpwatchSnapshotRestoreRoundTrip) {
    using common::Duration;
    using common::SimTime;

    const wire::MacAddress mac_a = wire::MacAddress::local(1);
    const wire::MacAddress mac_b = wire::MacAddress::local(2);
    const wire::Ipv4Address ip{10, 0, 0, 1};

    // First life: learn ip -> A, then see the change to B (one alert).
    telemetry::Json snapshot;
    {
        SchemeSession session{std::make_unique<detect::ArpwatchScheme>(), SessionOptions{}};
        const wire::Bytes f1 = announce(mac_a, ip);
        const wire::Bytes f2 = announce(mac_b, ip);
        session.feed(SimTime{} + Duration::millis(5), view_of(f1));
        session.feed(SimTime{} + Duration::millis(100), view_of(f2));
        EXPECT_EQ(session.alerts().count(), 1u);
        snapshot = session.scheme().snapshot_state();
    }
    // The snapshot is a plain JSON document and survives dump/parse — the
    // shape it takes inside arpsec.serve-snapshot.v2.
    const auto reparsed = telemetry::Json::parse(snapshot.dump(2));
    ASSERT_TRUE(reparsed.has_value());

    // Second life, restored: A reappearing within the flip-flop window is
    // recognized as an oscillation back to the *remembered* previous MAC —
    // proof that mac, previous_mac, and last_change all survived.
    {
        SchemeSession session{std::make_unique<detect::ArpwatchScheme>(), SessionOptions{}};
        session.scheme().restore_state(*reparsed);
        const wire::Bytes f3 = announce(mac_a, ip);
        session.feed(SimTime{} + Duration::millis(200), view_of(f3));
        ASSERT_EQ(session.alerts().count(), 1u);
        const detect::Alert& a = session.alerts().alerts()[0];
        EXPECT_EQ(a.kind, detect::AlertKind::kFlipFlop);
        EXPECT_EQ(a.previous_mac, mac_b);
        EXPECT_EQ(a.claimed_mac, mac_a);
    }

    // Control: the same frame into a *fresh* session is just a new station.
    {
        SchemeSession session{std::make_unique<detect::ArpwatchScheme>(), SessionOptions{}};
        const wire::Bytes f3 = announce(mac_a, ip);
        session.feed(SimTime{} + Duration::millis(200), view_of(f3));
        EXPECT_EQ(session.alerts().count(), 0u);
    }

    // Stateless schemes return an empty object and ignore restores.
    detect::NullScheme none;
    EXPECT_TRUE(none.snapshot_state().is_object());
    EXPECT_EQ(none.snapshot_state().size(), 0u);
    none.restore_state(*reparsed);
}

TEST(SchemeSessionTest, ActiveProbeSnapshotKeepsInFlightProbes) {
    // A conflicting claim at 100 ms starts a probe of the old station with a
    // 400 ms timeout. A snapshot taken mid-probe carries the probe, and the
    // restore re-arms its timeout at the original deadline.
    const wire::MacAddress mac_a = wire::MacAddress::local(1);
    const wire::MacAddress mac_b = wire::MacAddress::local(2);
    const wire::Ipv4Address ip{10, 0, 0, 1};
    telemetry::Json snapshot;
    {
        SchemeSession session{std::make_unique<detect::ActiveProbeScheme>(), SessionOptions{}};
        session.feed(ms(5), view_of(announce(mac_a, ip)));
        session.feed(ms(100), view_of(announce(mac_b, ip)));
        EXPECT_EQ(session.alerts().count(), 0u);
        snapshot = round_tripped(session.scheme().snapshot_state());
    }
    const auto restored = [&] {
        auto session =
            std::make_unique<SchemeSession>(std::make_unique<detect::ActiveProbeScheme>(),
                                            SessionOptions{});
        session->scheme().restore_state(snapshot);
        session->advance_to(ms(100));
        return session;
    };

    // The old station answers after the restart: the spoof is confirmed.
    {
        auto session = restored();
        session->feed(ms(200), view_of(announce(mac_a, ip)));
        ASSERT_EQ(session->alerts().count(), 1u);
        const detect::Alert& a = session->alerts().alerts()[0];
        EXPECT_EQ(a.kind, detect::AlertKind::kSpoofSuspected);
        EXPECT_EQ(a.claimed_mac, mac_b);
        EXPECT_EQ(a.previous_mac, mac_a);
    }
    // The old station stays silent: the re-armed timeout fires at 500 ms and
    // absorbs the rebind quietly, leaving B as the known station.
    {
        auto session = restored();
        session->feed(ms(600), view_of(announce(mac_b, ip)));
        EXPECT_EQ(session->alerts().count(), 0u);
        const telemetry::Json state = session->scheme().snapshot_state();
        EXPECT_EQ(state.find("probes")->size(), 0u);
        ASSERT_EQ(state.find("stations")->size(), 1u);
        EXPECT_EQ(state.find("stations")->at(0).find("mac")->as_string(), mac_b.to_string());
    }
}

TEST(SchemeSessionTest, LeaseMonitorSnapshotKeepsLeases) {
    const wire::MacAddress holder = wire::MacAddress::local(1);
    const wire::MacAddress intruder = wire::MacAddress::local(2);
    const wire::Ipv4Address ip{10, 0, 0, 7};

    // The server's ACK leases `ip` to `holder`.
    wire::DhcpMessage ack;
    ack.op = 2;
    ack.message_type = wire::DhcpMessageType::kAck;
    ack.yiaddr = ip;
    ack.chaddr = holder;
    wire::UdpDatagram udp;
    udp.src_port = wire::DhcpMessage::kServerPort;
    udp.dst_port = wire::DhcpMessage::kClientPort;
    udp.payload = ack.serialize();
    wire::Ipv4Packet packet;
    packet.src = wire::Ipv4Address{10, 0, 0, 1};
    packet.dst = wire::Ipv4Address::broadcast();
    packet.payload = udp.serialize();
    wire::EthernetFrame frame;
    frame.src = wire::MacAddress::local(9);
    frame.dst = wire::MacAddress::broadcast();
    frame.ether_type = wire::EtherType::kIpv4;
    frame.payload = packet.serialize();

    telemetry::Json snapshot;
    {
        SchemeSession session{std::make_unique<detect::LeaseMonitorScheme>(), SessionOptions{}};
        session.feed(ms(5), view_of(frame.serialize()));
        snapshot = round_tripped(session.scheme().snapshot_state());
    }
    // Restored, the lease still stands: another MAC claiming it alerts. A
    // fresh session knows no lease and stays quiet.
    for (const bool restore : {true, false}) {
        SCOPED_TRACE(restore ? "restored" : "fresh");
        SchemeSession session{std::make_unique<detect::LeaseMonitorScheme>(), SessionOptions{}};
        if (restore) session.scheme().restore_state(snapshot);
        session.feed(ms(50), view_of(announce(intruder, ip)));
        ASSERT_EQ(session.alerts().count(), restore ? 1u : 0u);
        if (restore) {
            EXPECT_EQ(session.alerts().alerts()[0].kind, detect::AlertKind::kBindingViolation);
            EXPECT_EQ(session.alerts().alerts()[0].previous_mac, holder);
        }
    }
}

std::vector<std::string> alert_lines(const std::vector<detect::Alert>& alerts) {
    std::vector<std::string> lines;
    for (const detect::Alert& a : alerts) lines.push_back(serve::alert_line(a));
    return lines;
}

TEST(EngineTest, RunAllIsIdenticalForAnyJobsValue) {
    const LabeledTrace trace = load_small();
    const detect::Registry registry;
    const Engine engine{registry};
    std::vector<std::string> schemes;
    for (const auto& entry : registry.entries()) schemes.push_back(entry.name);

    // Reference: each scheme alone in a SchemeSession, fed one freshly
    // captured view per frame.
    SessionOptions session_options;
    session_options.seed = trace.seed == 0 ? 1 : trace.seed;
    session_options.directory = trace.directory;
    std::vector<std::vector<std::string>> lone;
    for (const std::string& name : schemes) {
        SchemeSession session{registry.make(name), session_options};
        for (const TraceFrame& f : trace.frames) session.feed(f.at, view_of(f.bytes));
        session.finish(EngineOptions{}.grace);
        lone.push_back(alert_lines(session.alerts().alerts()));
    }

    // 1 worker, uneven groups (15 over 2 and 4) and more jobs than schemes.
    const auto serial = engine.run_all(trace, schemes, 1);
    ASSERT_EQ(serial.size(), schemes.size());
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        ASSERT_FALSE(serial[i].failed) << serial[i].error;
        EXPECT_EQ(serial[i].value.scheme, schemes[i]);
        EXPECT_EQ(serial[i].value.frames, trace.frames.size()) << schemes[i];
        EXPECT_EQ(alert_lines(serial[i].value.alert_list), lone[i]) << schemes[i];
        EXPECT_EQ(serial[i].value.alerts, lone[i].size()) << schemes[i];
    }
    for (const std::size_t jobs : {2u, 4u, 16u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const auto fanned = engine.run_all(trace, schemes, jobs);
        ASSERT_EQ(fanned.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            ASSERT_FALSE(fanned[i].failed) << fanned[i].error;
            EXPECT_EQ(serial[i].value.to_json().dump(2), fanned[i].value.to_json().dump(2))
                << schemes[i];
            EXPECT_EQ(alert_lines(fanned[i].value.alert_list), lone[i]) << schemes[i];
        }
    }
}

TEST(EngineTest, ArtifactCarriesSchemaAndScores) {
    const LabeledTrace trace = load_small();
    const detect::Registry registry;
    const Engine engine{registry};
    const auto score = engine.run(trace, "arpwatch");
    ASSERT_TRUE(score.ok()) << score.error();

    const auto artifact = Engine::artifact(trace, {score.value()}, "replay_test");
    const auto* schema = artifact.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->as_string(), Engine::kSchema);
    const auto* schemes = artifact.find("schemes");
    ASSERT_NE(schemes, nullptr);
    EXPECT_EQ(schemes->size(), 1u);

    // The envelope survives a serialize/parse cycle.
    const auto reparsed = telemetry::Json::parse(artifact.dump(2));
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->dump(2), artifact.dump(2));
}

TEST(EngineTest, ArtifactIsJobsInvariantWithDefaultOptions) {
    // Default options, no flag: the artifact holds no wall clock, so it is
    // byte-identical whatever the worker split.
    const LabeledTrace trace = load_small();
    const detect::Registry registry;
    const Engine engine{registry};
    std::vector<std::string> schemes;
    for (const auto& entry : registry.entries()) schemes.push_back(entry.name);

    const auto artifact_at = [&](std::size_t jobs) {
        std::vector<SchemeScore> scores;
        for (auto& outcome : engine.run_all(trace, schemes, jobs)) {
            EXPECT_FALSE(outcome.failed) << outcome.error;
            scores.push_back(std::move(outcome.value));
        }
        return Engine::artifact(trace, scores, "replay_test").dump();
    };
    EXPECT_EQ(artifact_at(1), artifact_at(4));
}

// ---------------------------------------------------------------------------
// Shared --version plumbing
// ---------------------------------------------------------------------------

TEST(VersionTest, ToolVersionLineNamesTheTool) {
    EXPECT_NE(common::version_string(), nullptr);
    EXPECT_STRNE(common::version_string(), "");
    const std::string line = common::tool_version_line("replay");
    EXPECT_NE(line.find("arpsec-replay "), std::string::npos) << line;
    EXPECT_NE(line.find(common::version_string()), std::string::npos) << line;
}

}  // namespace
}  // namespace arpsec::replay
