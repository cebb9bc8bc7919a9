#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "detect/registry.hpp"
#include "exp/executor.hpp"
#include "replay/engine.hpp"
#include "replay/source.hpp"
#include "replay/trace.hpp"
#include "serve/alert_stream.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "serve/transport.hpp"
#include "wire/binding_key.hpp"
#include "wire/dhcp_message.hpp"
#include "wire/stream_codec.hpp"
#include "wire/udp_datagram.hpp"

namespace arpsec::serve {
namespace {

// The schemes that watch the mirror port, i.e. the ones that alert on a
// replayed trace.
const std::vector<std::string> kMonitorSchemes = {"arpwatch", "snort-arpspoof",
                                                  "lease-monitor", "active-probe"};

replay::LabeledTrace small_trace() {
    replay::ScenarioTraceSource::Options opts;
    opts.first_seed = 1;
    opts.target_frames = 600;
    auto trace = replay::ScenarioTraceSource{opts}.load();
    EXPECT_TRUE(trace.ok()) << trace.error();
    return trace.value();
}

// Encodes the client half of an `arpsec.stream.v1` conversation for a
// slice of `trace` — exactly what arpsec-loadgen would put on the wire.
wire::Bytes encode_stream(const replay::LabeledTrace& trace, std::size_t begin,
                          std::size_t end, bool with_hello = true,
                          bool with_end = true) {
    wire::Bytes out;
    if (with_hello) {
        wire::StreamHello hello;
        hello.seed = trace.seed == 0 ? 1 : trace.seed;
        wire::encode_hello(out, hello);
        std::vector<wire::StreamHostEntry> entries;
        entries.reserve(trace.directory.size());
        for (const auto& host : trace.directory) {
            entries.push_back({host.name, host.ip, host.mac});
        }
        wire::encode_directory(out, entries);
    }
    for (std::size_t i = begin; i < end && i < trace.frames.size(); ++i) {
        wire::encode_frame(
            out, static_cast<std::uint64_t>(trace.frames[i].at.nanos()),
            std::span<const std::uint8_t>{trace.frames[i].bytes.data(),
                                          trace.frames[i].bytes.size()});
    }
    if (with_end) wire::encode_end(out);
    return out;
}

// Runs one serve() on `server_end` while `client` plays `script` from its
// own thread (the sanctioned exp::run_pair entry point), mirroring the real
// daemon's intake-vs-transport concurrency. Then the client hangs up
// (`close_after`) or reads the server's records, into `received` when
// given, until the server end closes after serve() returns: a client that
// keeps reading never blocks a worker that writes alerts, whatever the
// socket buffers.
common::Expected<ServeOutcome> serve_script(Server& server, Connection& client,
                                            Connection& server_end,
                                            const wire::Bytes& script,
                                            bool close_after = false,
                                            wire::Bytes* received = nullptr) {
    std::optional<common::Expected<ServeOutcome>> outcome;
    const std::string peer = exp::run_pair(
        [&] {
            (void)client.write_all(script);
            if (close_after) {
                client.close();
                return;
            }
            std::vector<std::uint8_t> buf(1 << 14);
            for (;;) {
                const IoResult io = client.read_some(std::span<std::uint8_t>{buf}, 10000);
                EXPECT_NE(io.kind, IoResult::Kind::kTimeout) << "server never closed";
                if (io.kind != IoResult::Kind::kData) break;
                if (received != nullptr) {
                    received->insert(received->end(), buf.begin(),
                                     buf.begin() + static_cast<std::ptrdiff_t>(io.bytes));
                }
            }
        },
        [&] {
            outcome = server.serve(server_end);
            server_end.close();
        });
    EXPECT_EQ(peer, "");
    return *outcome;
}

// serve_script over a fresh make_pipe() socketpair.
common::Expected<ServeOutcome> serve_script(Server& server, const wire::Bytes& script,
                                            bool close_after = false,
                                            wire::Bytes* received = nullptr) {
    auto pipe = make_pipe();
    if (!pipe.ok()) return common::Expected<ServeOutcome>::failure(pipe.error());
    return serve_script(server, *pipe->client, *pipe->server, script, close_after, received);
}

std::vector<std::string> canonical_lines(std::vector<detect::Alert> alerts) {
    sort_canonical(alerts);
    std::vector<std::string> lines;
    lines.reserve(alerts.size());
    for (const auto& a : alerts) lines.push_back(alert_line(a));
    return lines;
}

// The offline ground truth: the same trace through arpsec-replay's engine,
// on the engine's default grace window (shared with ServerOptions).
std::vector<detect::Alert> offline_alerts(const replay::LabeledTrace& trace,
                                          const std::string& scheme = "arpwatch") {
    const detect::Registry registry;
    const auto score = replay::Engine{registry}.run(trace, scheme);
    EXPECT_TRUE(score.ok()) << score.error();
    return score.value().alert_list;
}

// ---------------------------------------------------------------------------
// alert_line: the arpsec.alert-stream.v1 line format
// ---------------------------------------------------------------------------

TEST(AlertLineTest, GoldenBytes) {
    // Every equivalence check formats both sides with alert_line, so only a
    // pinned string catches drift in the format itself.
    detect::Alert a;
    a.at = common::SimTime{-1500};
    a.scheme = "arpwatch";
    a.kind = detect::AlertKind::kIpMacChange;
    a.ip = wire::Ipv4Address{192, 168, 1, 5};
    a.claimed_mac = wire::MacAddress{0x02, 0x00, 0x00, 0x00, 0xab, 0x01};
    a.previous_mac = wire::MacAddress{0x0a, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
    a.detail = "said \"hi\" C:\\tmp\x01\n caf\xc3\xa9";
    EXPECT_EQ(alert_line(a),
              R"({"at_ns":-1500,"scheme":"arpwatch","kind":"ip-mac-change",)"
              R"("ip":"192.168.1.5","claimed_mac":"02:00:00:00:ab:01",)"
              R"("previous_mac":"0a:bb:cc:dd:ee:ff",)"
              R"("detail":"said \"hi\" C:\\tmp\u0001\n caf)"
              "\xc3\xa9\"}");
}

TEST(AlertLineTest, MatchesJsonObjectDumpOnRandomAlerts) {
    // The reference layout: a telemetry::Json object with the keys assigned
    // in order, dumped compactly.
    const auto reference = [](const detect::Alert& a) {
        telemetry::Json j = telemetry::Json::object();
        j["at_ns"] = a.at.nanos();
        j["scheme"] = a.scheme;
        j["kind"] = detect::to_string(a.kind);
        j["ip"] = a.ip.to_string();
        j["claimed_mac"] = a.claimed_mac.to_string();
        j["previous_mac"] = a.previous_mac.to_string();
        j["detail"] = a.detail;
        return j.dump();
    };
    std::mt19937_64 rng{20070613};
    const auto bytes = [&](std::size_t max) {
        std::string out(rng() % (max + 1), '\0');
        for (char& c : out) c = static_cast<char>(rng() & 0xFF);
        return out;
    };
    const auto mac = [&] {
        const std::uint64_t v = rng();
        return wire::MacAddress{static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                                static_cast<std::uint8_t>(v >> 16),
                                static_cast<std::uint8_t>(v >> 24),
                                static_cast<std::uint8_t>(v >> 32),
                                static_cast<std::uint8_t>(v >> 40)};
    };
    for (int i = 0; i < 5000; ++i) {
        detect::Alert a;
        a.at = common::SimTime{static_cast<std::int64_t>(rng())};
        a.scheme = i % 2 == 0 ? std::string{"snort-arpspoof"} : bytes(12);
        a.kind = static_cast<detect::AlertKind>(rng() % 10);
        a.ip = wire::Ipv4Address{static_cast<std::uint32_t>(rng())};
        a.claimed_mac = mac();
        a.previous_mac = mac();
        a.detail = bytes(48);
        ASSERT_EQ(alert_line(a), reference(a)) << "alert " << i;
    }
}

// ---------------------------------------------------------------------------
// Server::create
// ---------------------------------------------------------------------------

TEST(ServeCreateTest, RejectsZeroShardsAndUnknownSchemes) {
    const detect::Registry registry;
    ServerOptions opts;
    opts.shards = 0;
    EXPECT_FALSE(Server::create(registry, opts).ok());

    opts = ServerOptions{};
    opts.schemes = {"no-such-scheme"};
    EXPECT_FALSE(Server::create(registry, opts).ok());

    opts = ServerOptions{};
    opts.schemes.clear();
    EXPECT_FALSE(Server::create(registry, opts).ok());

    EXPECT_TRUE(Server::create(registry, ServerOptions{}).ok());
}

TEST(ServeCreateTest, RejectsANonPositiveReadTimeout) {
    // 0 would spin the intake on poll(0); a negative timeout blocks in
    // read(), where request_stop() cannot reach a quiet stream.
    const detect::Registry registry;
    for (const int timeout_ms : {0, -1}) {
        SCOPED_TRACE("read_timeout_ms=" + std::to_string(timeout_ms));
        ServerOptions opts;
        opts.read_timeout_ms = timeout_ms;
        const auto server = Server::create(registry, opts);
        ASSERT_FALSE(server.ok());
        EXPECT_EQ(server.error(), "serve: read_timeout_ms must be > 0");
    }
    ServerOptions opts;
    opts.read_timeout_ms = 1;
    EXPECT_TRUE(Server::create(registry, opts).ok());
}

/// Threads of this process, from /proc/self/task.
std::size_t thread_count() {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator{"/proc/self/task"}) {
        ++n;
    }
    return n;
}

TEST(ServeCreateTest, RefusesShardAndRingCountsPastTheirBounds) {
    // Each shard starts a thread and each ring builds its slots up front,
    // so create() refuses both counts past their bounds. It builds neither:
    // these rows start no thread and allocate no ring whatever the value.
    const detect::Registry registry;
    const std::size_t huge = std::numeric_limits<std::size_t>::max();
    for (const std::size_t shards : {exp::kMaxJobs + 1, huge}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        ServerOptions opts;
        opts.shards = shards;
        const auto server = Server::create(registry, opts);
        ASSERT_FALSE(server.ok());
        EXPECT_EQ(server.error(), "serve: shards must be <= 256");
    }
    for (const std::size_t ring : {kMaxRingCapacity + 1, huge}) {
        SCOPED_TRACE("ring_capacity=" + std::to_string(ring));
        ServerOptions opts;
        opts.ring_capacity = ring;
        const auto server = Server::create(registry, opts);
        ASSERT_FALSE(server.ok());
        EXPECT_EQ(server.error(), "serve: ring_capacity must be <= 1048576");
    }

    // Both bounds themselves are accepted, still without a thread: the
    // shards and their rings are built once a stream says HELLO.
    const std::size_t threads = thread_count();
    ServerOptions opts;
    opts.shards = exp::kMaxJobs;
    opts.ring_capacity = kMaxRingCapacity;
    const auto server = Server::create(registry, opts);
    ASSERT_TRUE(server.ok()) << server.error();
    EXPECT_EQ(thread_count(), threads);
}

TEST(ServeCreateTest, GraceDefaultMatchesReplayEngine) {
    EXPECT_EQ(ServerOptions{}.grace, replay::EngineOptions{}.grace);
}

// ---------------------------------------------------------------------------
// shard routing
// ---------------------------------------------------------------------------

TEST(ServeShardTest, RoutingIsStableAndBounded) {
    const auto trace = small_trace();
    for (const auto& frame : trace.frames) {
        const wire::FrameView view{
            wire::FrameBuffer::capture(std::span<const std::uint8_t>(frame.bytes))};
        EXPECT_EQ(shard_of(view, 1), 0u);
        const std::size_t first = shard_of(view, 4);
        EXPECT_LT(first, 4u);
        EXPECT_EQ(shard_of(view, 4), first);  // same frame, same shard
        EXPECT_EQ(shard_of(frame.bytes, 4), first);
    }
}

TEST(ServeShardTest, SpreadsAcrossShards) {
    // A realistic LAN trace — every station in one /24 — must spread evenly,
    // or the sharded daemon degenerates to one busy worker.
    const auto trace = small_trace();
    const auto hits = [&](std::size_t shards) {
        std::vector<std::size_t> out(shards, 0);
        for (const auto& frame : trace.frames) ++out[shard_of(frame.bytes, shards)];
        return out;
    };
    const auto two = hits(2);
    const double mean = static_cast<double>(trace.frames.size()) / 2.0;
    EXPECT_LE(static_cast<double>(*std::max_element(two.begin(), two.end())) / mean, 1.25)
        << two[0] << " vs " << two[1] << " frames";
    const auto four = hits(4);
    for (std::size_t i = 0; i < four.size(); ++i) EXPECT_GT(four[i], 0u) << "shard " << i;
}

// One Ethernet frame carrying `m` over UDP, built with the wire serializers.
wire::Bytes dhcp_frame(const wire::DhcpMessage& m, wire::Ipv4Address src,
                       wire::MacAddress mac) {
    wire::UdpDatagram udp;
    udp.src_port = m.is_reply() ? wire::DhcpMessage::kServerPort : wire::DhcpMessage::kClientPort;
    udp.dst_port = m.is_reply() ? wire::DhcpMessage::kClientPort : wire::DhcpMessage::kServerPort;
    udp.payload = m.serialize();
    wire::Ipv4Packet ip;
    ip.src = src;
    ip.dst = wire::Ipv4Address::broadcast();
    ip.payload = udp.serialize();
    wire::EthernetFrame frame;
    frame.src = mac;
    frame.dst = wire::MacAddress::broadcast();
    frame.ether_type = wire::EtherType::kIpv4;
    frame.payload = ip.serialize();
    return frame.serialize();
}

wire::Bytes arp_frame(const wire::ArpPacket& arp) {
    wire::EthernetFrame frame;
    frame.src = arp.sender_mac;
    frame.dst = arp.target_mac;
    frame.ether_type = wire::EtherType::kArp;
    frame.payload = arp.serialize();
    return frame.serialize();
}

TEST(ServeShardTest, BindingKeyFollowsTheClaimedAddress) {
    const wire::Ipv4Address server{192, 168, 1, 1};
    const wire::Ipv4Address leased{192, 168, 1, 57};
    const wire::MacAddress client = wire::MacAddress::local(57);
    const wire::MacAddress server_mac = wire::MacAddress::local(1);

    wire::DhcpMessage ack;
    ack.op = 2;
    ack.message_type = wire::DhcpMessageType::kAck;
    ack.yiaddr = leased;
    ack.chaddr = client;
    EXPECT_EQ(wire::binding_key(dhcp_frame(ack, server, server_mac)), leased.value());

    wire::DhcpMessage release;
    release.message_type = wire::DhcpMessageType::kRelease;
    release.ciaddr = leased;
    release.chaddr = client;
    EXPECT_EQ(wire::binding_key(dhcp_frame(release, wire::Ipv4Address::any(), client)),
              leased.value());

    wire::DhcpMessage discover;  // no address yet: keyed by the IPv4 source
    discover.chaddr = client;
    EXPECT_EQ(wire::binding_key(dhcp_frame(discover, wire::Ipv4Address::any(), client)), 0u);

    const wire::Bytes reply =
        arp_frame(wire::ArpPacket::reply(client, leased, server_mac, server));
    EXPECT_EQ(wire::binding_key(reply), leased.value());
    // An ARP frame cut before the sender address falls back to the MAC.
    EXPECT_EQ(wire::binding_key(std::span<const std::uint8_t>{reply.data(), 20}),
              client.to_u64());

    wire::EthernetFrame too_short;
    too_short.ether_type = wire::EtherType::kIpv4;
    wire::Bytes odd = too_short.serialize();
    odd[12] = 0x86;  // an EtherType nothing here parses (IPv6)
    odd[13] = 0xDD;
    EXPECT_FALSE(wire::binding_key(odd).has_value());
    EXPECT_FALSE(wire::binding_key(std::span<const std::uint8_t>{odd.data(), 13}).has_value());
}

TEST(ServeShardTest, FrozenStopCatchesEachSessionUpToItsLastFrame) {
    // A stop without grace reads alerts and snapshots at the last frame fed.
    // A session that observes nothing (s-arp here, whose key server
    // transmits at start) leaves its clock behind while it counts frames,
    // so the stop runs it up to that frame: every session then ends where
    // one whose clock was advanced to each frame does.
    const auto trace = small_trace();
    const detect::Registry registry;
    replay::SessionOptions session_options;
    session_options.seed = trace.seed == 0 ? 1 : trace.seed;
    session_options.directory = trace.directory;
    const std::vector<std::string> schemes{"arpwatch", "s-arp", "active-probe"};
    Shard shard{0, registry, schemes, session_options, Shard::Options{}};
    const common::Stopwatch clock;
    telemetry::Gauge depth;
    shard.start(&clock, &depth);
    for (const auto& frame : trace.frames) shard.add(frame.at, frame.bytes);
    shard.finish_input(false, replay::kDefaultGrace);
    shard.join();
    ASSERT_EQ(shard.frames(), trace.frames.size());

    for (std::size_t s = 0; s < schemes.size(); ++s) {
        SCOPED_TRACE(schemes[s]);
        replay::SchemeSession clocked{registry.make(schemes[s]), session_options};
        for (const auto& frame : trace.frames) {
            clocked.advance_to(frame.at);
            clocked.feed(frame.at, wire::FrameView{wire::FrameBuffer::capture(
                                       std::span<const std::uint8_t>(frame.bytes))});
        }
        replay::SchemeSession& frozen = shard.session(s);
        EXPECT_EQ(frozen.now(), clocked.now());
        EXPECT_EQ(frozen.alerts().count(), clocked.alerts().count());
        const telemetry::Json metrics = frozen.metrics().snapshot_json();
        EXPECT_EQ(metrics.dump(2), clocked.metrics().snapshot_json().dump(2));
        EXPECT_GT(metrics.find("counters")->find("sim.sched.events_executed")->as_int(), 0);
    }
}

TEST(ServeShardTest, LeaseAndItsClaimsShareAShard) {
    // lease-monitor learns a lease from the server's ACK (keyed by yiaddr),
    // checks the client's later ARP claims for that IP, and erases the lease
    // on a RELEASE's ciaddr: all three must reach the same worker, wherever
    // the server's own address lies.
    const wire::MacAddress server_mac = wire::MacAddress::local(1);
    const wire::Ipv4Address servers[] = {{192, 168, 1, 1}, {10, 0, 0, 1}};
    for (std::uint8_t host = 2; host < 66; ++host) {
        const wire::Ipv4Address leased{192, 168, 1, host};
        const wire::MacAddress client = wire::MacAddress::local(100 + host);
        for (const wire::Ipv4Address& server : servers) {
            wire::DhcpMessage ack;
            ack.op = 2;
            ack.message_type = wire::DhcpMessageType::kAck;
            ack.yiaddr = leased;
            ack.chaddr = client;
            ack.server_id = server;
            wire::DhcpMessage release;
            release.message_type = wire::DhcpMessageType::kRelease;
            release.ciaddr = leased;
            release.chaddr = client;
            release.server_id = server;
            const wire::Bytes frames[] = {
                dhcp_frame(ack, server, server_mac),
                dhcp_frame(release, leased, client),
                arp_frame(wire::ArpPacket::reply(client, leased, server_mac, server)),
            };
            for (const std::size_t shards : {2, 3, 4, 8}) {
                SCOPED_TRACE(leased.to_string() + " from server " + server.to_string() +
                             ", shards=" + std::to_string(shards));
                const std::size_t ack_shard = shard_of(frames[0], shards);
                EXPECT_EQ(shard_of(frames[1], shards), ack_shard);
                EXPECT_EQ(shard_of(frames[2], shards), ack_shard);
                const wire::FrameView view{wire::FrameBuffer::capture(frames[0])};
                EXPECT_EQ(shard_of(view, shards), ack_shard);  // one implementation
            }
        }
    }
}

// ---------------------------------------------------------------------------
// pipe-transport equivalence with offline replay
// ---------------------------------------------------------------------------

TEST(ServeEquivalenceTest, PipeStreamMatchesOfflineReplay) {
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.error();

    const auto outcome =
        serve_script(*server.value(), encode_stream(trace, 0, trace.frames.size()));
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_TRUE(outcome.value().ended_by_end_record);
    EXPECT_TRUE(outcome.value().transport_error.empty());

    const auto served = canonical_lines(outcome.value().alerts);
    const auto offline =
        canonical_lines(offline_alerts(trace));
    ASSERT_FALSE(offline.empty()) << "trace produced no alerts; test is vacuous";
    EXPECT_EQ(served, offline);

    const telemetry::Json& summary = outcome.value().summary;
    EXPECT_EQ(summary.find("schema")->as_string(), kSummarySchema);
    EXPECT_EQ(static_cast<std::size_t>(summary.find("frames")->as_int()),
              trace.frames.size());
}

TEST(ServeEquivalenceTest, AlertRecordsStreamBackToClient) {
    // Every registered scheme x shard count x streaming mode: the kAlert
    // records the client decodes are, as a multiset, the outcome's alerts,
    // which are the offline replay's; nothing arrives malformed; kSummary
    // closes the stream; and with streaming off no kAlert arrives at all.
    // Schemes outside the monitor vantage see no frames here; their rows
    // guard any future scheme whose state a shard split would break.
    const auto trace = small_trace();
    const wire::Bytes script = encode_stream(trace, 0, trace.frames.size());
    const detect::Registry registry;
    for (const detect::RegisteredScheme& entry : registry.entries()) {
        const std::string& scheme = entry.name;
        const auto offline = canonical_lines(offline_alerts(trace, scheme));
        if (std::find(kMonitorSchemes.begin(), kMonitorSchemes.end(), scheme) !=
            kMonitorSchemes.end()) {
            ASSERT_FALSE(offline.empty()) << scheme << " raised no alerts; the case is vacuous";
        }
        for (const std::size_t shards : {1, 2, 4}) {
            for (const bool stream : {true, false}) {
                SCOPED_TRACE(scheme + " shards=" + std::to_string(shards) +
                             (stream ? " streaming" : " not streaming"));
                ServerOptions opts;
                opts.schemes = {scheme};
                opts.shards = shards;
                opts.stream_alerts = stream;
                auto server = Server::create(registry, opts);
                ASSERT_TRUE(server.ok()) << server.error();

                wire::Bytes received;
                const auto served =
                    serve_script(*server.value(), script, /*close_after=*/false, &received);
                ASSERT_TRUE(served.ok()) << served.error();

                std::vector<std::string> streamed;
                std::vector<wire::StreamRecordType> types;
                std::size_t bad = 0;
                wire::StreamDecoder decoder;
                decoder.feed(received);
                wire::StreamRecord rec;
                for (;;) {
                    const auto st = decoder.poll(rec);
                    if (st == wire::StreamDecoder::Status::kNeedMore) break;
                    if (st != wire::StreamDecoder::Status::kRecord) {
                        ++bad;
                        if (decoder.fatal()) break;
                        continue;
                    }
                    types.push_back(rec.type);
                    if (rec.type == wire::StreamRecordType::kAlert) streamed.push_back(rec.text);
                }

                EXPECT_EQ(served.value().transport_error, "");
                const auto outcome = canonical_lines(served.value().alerts);
                EXPECT_EQ(outcome, offline);
                EXPECT_EQ(bad, 0u);
                EXPECT_EQ(server.value()->metrics().counter("serve.intake.bad_records").value(),
                          0u);
                ASSERT_FALSE(types.empty());
                EXPECT_EQ(types.back(), wire::StreamRecordType::kSummary);
                EXPECT_EQ(std::count(types.begin(), types.end(),
                                     wire::StreamRecordType::kSummary),
                          1);
                const std::uint64_t written =
                    server.value()->metrics().counter("serve.alerts.written").value();
                if (stream) {
                    std::sort(streamed.begin(), streamed.end());
                    auto expected = outcome;
                    std::sort(expected.begin(), expected.end());
                    EXPECT_EQ(streamed, expected);
                    EXPECT_EQ(written, streamed.size());
                } else {
                    EXPECT_TRUE(streamed.empty());
                    EXPECT_EQ(written, 0u);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// sharded intake: conservation + backpressure
// ---------------------------------------------------------------------------

TEST(ServeShardedTest, EveryAdmittedFrameReachesExactlyOneShard) {
    const auto trace = small_trace();
    const detect::Registry registry;
    ServerOptions opts;
    opts.shards = 3;
    opts.ring_capacity = 64;  // under one batch: a one-slot ring, so backpressure runs
    auto server = Server::create(registry, opts);
    ASSERT_TRUE(server.ok()) << server.error();

    const auto outcome =
        serve_script(*server.value(), encode_stream(trace, 0, trace.frames.size()));
    ASSERT_TRUE(outcome.ok()) << outcome.error();

    const telemetry::Json& summary = outcome.value().summary;
    EXPECT_EQ(static_cast<std::size_t>(summary.find("frames")->as_int()),
              trace.frames.size());
    const auto* per_shard = summary.find("per_shard");
    ASSERT_NE(per_shard, nullptr);
    ASSERT_EQ(per_shard->size(), 3u);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < per_shard->size(); ++i) {
        total += static_cast<std::uint64_t>(per_shard->at(i).find("frames")->as_int());
    }
    EXPECT_EQ(total, trace.frames.size());

    // Queue depth is counted in frames and never exceeds the ring's frame
    // bound: --ring rounded up to whole batches.
    const std::int64_t bound = static_cast<std::int64_t>(
        (opts.ring_capacity + kBatchFrames - 1) / kBatchFrames * kBatchFrames);
    std::int64_t deepest = 0;
    for (std::size_t i = 0; i < opts.shards; ++i) {
        const telemetry::Gauge* depth = server.value()->metrics().find_gauge(
            "serve.shard." + std::to_string(i) + ".queue_depth");
        ASSERT_NE(depth, nullptr) << "shard " << i;
        EXPECT_LE(depth->high_water(), bound) << "shard " << i;
        deepest = std::max(deepest, depth->high_water());
    }
    EXPECT_GT(deepest, 0);
}

TEST(ServeShardedTest, MixedSmallAndJumboFramesMatchOfflineReplay) {
    // Frames of very different sizes share each batch arena: every third
    // frame is padded with zeros to 9000 bytes (ARP and IPv4 both parse past
    // trailing padding), and the shortest are ARP's 60 bytes.
    replay::LabeledTrace trace = small_trace();
    std::size_t jumbo = 0;
    std::size_t small = 0;
    for (std::size_t i = 0; i < trace.frames.size(); ++i) {
        wire::Bytes& bytes = trace.frames[i].bytes;
        if (i % 3 == 0) {
            bytes.resize(9000, 0);
            ++jumbo;
        } else if (bytes.size() == 60) {
            ++small;
        }
    }
    ASSERT_GT(small, 0u) << "no 60-byte frame left; the mix is vacuous";
    const auto offline = canonical_lines(offline_alerts(trace));
    ASSERT_FALSE(offline.empty()) << "trace produced no alerts; test is vacuous";
    const detect::Registry registry;
    for (const std::size_t shards : {1, 2}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) + ", " + std::to_string(jumbo) +
                     " jumbo frames");
        ServerOptions opts;
        opts.shards = shards;
        auto server = Server::create(registry, opts);
        ASSERT_TRUE(server.ok()) << server.error();
        const auto outcome =
            serve_script(*server.value(), encode_stream(trace, 0, trace.frames.size()));
        ASSERT_TRUE(outcome.ok()) << outcome.error();
        EXPECT_EQ(outcome.value().transport_error, "");
        EXPECT_EQ(static_cast<std::size_t>(outcome.value().summary.find("frames")->as_int()),
                  trace.frames.size());
        EXPECT_EQ(canonical_lines(outcome.value().alerts), offline);
    }
}

TEST(ServeBatchTest, ArenaHoldsFramesBackToBackAndKeepsCapacityUnderTheCap) {
    Batch batch;
    const wire::Bytes a(60, 0x11);
    const wire::Bytes b(9000, 0x22);
    batch.add(common::SimTime{5}, a);
    batch.add(common::SimTime{7}, b);
    ASSERT_EQ(batch.frames.size(), 2u);
    EXPECT_EQ(batch.frames[0].at, common::SimTime{5});
    EXPECT_EQ(batch.frames[1].offset, 60u);
    EXPECT_EQ(batch.arena.size(), 9060u);
    const auto second = batch.bytes(batch.frames[1]);
    EXPECT_TRUE(std::equal(second.begin(), second.end(), b.begin(), b.end()));

    // Under the cap: clear() empties both vectors and keeps their capacity.
    const std::size_t capacity = batch.arena.capacity();
    batch.clear();
    EXPECT_TRUE(batch.frames.empty());
    EXPECT_TRUE(batch.arena.empty());
    EXPECT_EQ(batch.arena.capacity(), capacity);

    // Past the cap: the arena is freed, not kept for the next batch.
    const wire::Bytes big(kMaxKeptArenaBytes / 4 + 1, 0x33);
    for (int i = 0; i < 4; ++i) batch.add(common::SimTime{i}, big);
    ASSERT_GT(batch.arena.capacity(), kMaxKeptArenaBytes);
    batch.clear();
    EXPECT_EQ(batch.arena.capacity(), 0u);
    batch.add(common::SimTime{9}, a);
    EXPECT_EQ(batch.bytes(batch.frames[0]).size(), 60u);
}

TEST(ServeShardTest, WorkerStopsEncodingAlertsOnceTheClientIsGone) {
    // The writer reports the client gone from its first call on. The worker
    // must not call it again, while it still feeds every frame and counts
    // every alert. The trace goes in slices, each drained before the next,
    // so the worker flushes its alert buffer once per slice that alerted.
    const auto trace = small_trace();
    const auto offline = offline_alerts(trace);
    ASSERT_GT(offline.size(), 1u) << "too few alerts; the case is vacuous";
    const detect::Registry registry;
    replay::SessionOptions session_options;
    session_options.seed = trace.seed == 0 ? 1 : trace.seed;
    session_options.directory = trace.directory;
    std::atomic<int> writes{0};
    Shard::Options options;
    options.write_alerts = [&](const wire::Bytes&) {
        ++writes;
        return false;
    };
    Shard shard{0, registry, {"arpwatch"}, session_options, options};
    const common::Stopwatch clock;
    telemetry::Gauge depth;
    shard.start(&clock, &depth);
    std::uint64_t slices_with_alerts = 0;
    for (std::size_t begin = 0; begin < trace.frames.size(); begin += 50) {
        const std::uint64_t alerts_before = shard.alerts_emitted();
        const std::size_t end = std::min(begin + 50, trace.frames.size());
        for (std::size_t i = begin; i < end; ++i) {
            shard.add(trace.frames[i].at, trace.frames[i].bytes);
        }
        shard.flush();
        // The worker flushes its alerts when it finds its ring empty.
        while (shard.frames() < end || shard.queue_depth() != 0) exp::sleep_millis(1);
        exp::sleep_millis(2);
        if (shard.alerts_emitted() > alerts_before) ++slices_with_alerts;
    }
    shard.finish_input(true, replay::kDefaultGrace);
    shard.join();
    ASSERT_GT(slices_with_alerts, 1u) << "alerts came in one slice; the case is vacuous";
    EXPECT_EQ(writes.load(), 1);
    EXPECT_EQ(shard.alerts_emitted(), offline.size());
    EXPECT_EQ(shard.alerts_written(), 0u);
    EXPECT_EQ(shard.frames(), trace.frames.size());
}

// ---------------------------------------------------------------------------
// protocol errors and malformed records
// ---------------------------------------------------------------------------

TEST(ServeProtocolTest, FrameBeforeHelloIsCountedAndIgnored) {
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.error();

    // One frame record ahead of the handshake, then a legal stream.
    wire::Bytes script;
    wire::encode_frame(script, 0,
                       std::span<const std::uint8_t>{trace.frames[0].bytes.data(),
                                                     trace.frames[0].bytes.size()});
    const wire::Bytes rest = encode_stream(trace, 0, 10);
    script.insert(script.end(), rest.begin(), rest.end());

    const auto outcome = serve_script(*server.value(), script);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_EQ(outcome.value().summary.find("frames")->as_int(), 10);
    EXPECT_EQ(server.value()->metrics().counter("serve.intake.protocol_errors").value(),
              1u);
}

TEST(ServeProtocolTest, DuplicateHelloIsCountedAndIgnored) {
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.error();

    wire::Bytes script;
    wire::StreamHello hello;
    hello.seed = trace.seed;
    wire::encode_hello(script, hello);
    const wire::Bytes rest = encode_stream(trace, 0, 10);  // second HELLO inside
    script.insert(script.end(), rest.begin(), rest.end());

    const auto outcome = serve_script(*server.value(), script);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_EQ(outcome.value().summary.find("frames")->as_int(), 10);
    EXPECT_EQ(server.value()->metrics().counter("serve.intake.protocol_errors").value(),
              1u);
}

TEST(ServeProtocolTest, UnsupportedHelloVersionIsRejectedBeforeAnyWork) {
    // The codec refuses a version != 1 HELLO (typed bad-record), so the
    // handshake never completes; the END that follows still terminates the
    // stream (as a protocol error) instead of hanging the daemon.
    const detect::Registry registry;
    auto server = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.error();

    wire::Bytes script;
    wire::StreamHello hello;
    hello.version = 2;
    wire::encode_hello(script, hello);
    wire::encode_end(script);

    const auto outcome = serve_script(*server.value(), script);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_FALSE(outcome.value().ended_by_end_record);
    EXPECT_EQ(outcome.value().summary.find("frames")->as_int(), 0);
    EXPECT_EQ(server.value()->metrics().counter("serve.intake.bad_records").value(), 1u);
    EXPECT_EQ(server.value()->metrics().counter("serve.intake.protocol_errors").value(),
              1u);
}

TEST(ServeProtocolTest, BadRecordBodyIsSkippedNotFatal) {
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.error();

    wire::Bytes script = encode_stream(trace, 0, 10, true, false);
    // A well-framed record with an unknown type byte: skipped, not fatal.
    script.insert(script.end(), {0x00, 0x00, 0x00, 0x01, 0x7F});
    const wire::Bytes tail = encode_stream(trace, 10, 20, false, true);
    script.insert(script.end(), tail.begin(), tail.end());

    const auto outcome = serve_script(*server.value(), script);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_TRUE(outcome.value().transport_error.empty());
    EXPECT_EQ(outcome.value().summary.find("frames")->as_int(), 20);
    EXPECT_EQ(server.value()->metrics().counter("serve.intake.bad_records").value(), 1u);
}

TEST(ServeProtocolTest, CorruptLengthPrefixAbandonsStreamButKeepsWork) {
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.error();

    wire::Bytes script = encode_stream(trace, 0, 10, true, false);
    // Zero-length prefix: framing is unrecoverable from here.
    script.insert(script.end(), {0x00, 0x00, 0x00, 0x00});

    const auto outcome = serve_script(*server.value(), script, /*close_after=*/true);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_FALSE(outcome.value().transport_error.empty());
    // Everything admitted before the corruption was still processed.
    EXPECT_EQ(outcome.value().summary.find("frames")->as_int(), 10);
}

// ---------------------------------------------------------------------------
// idle timeout and stop
// ---------------------------------------------------------------------------

TEST(ServeLifecycleTest, IdleTimeoutAbandonsAQuietStream) {
    const detect::Registry registry;
    ServerOptions opts;
    opts.read_timeout_ms = 5;
    opts.idle_timeout_ms = 20;
    auto server = Server::create(registry, opts);
    ASSERT_TRUE(server.ok()) << server.error();

    auto pipe = make_pipe();
    ASSERT_TRUE(pipe.ok()) << pipe.error();
    wire::Bytes script;
    wire::encode_hello(script, wire::StreamHello{});
    ASSERT_TRUE(pipe->client->write_all(script));
    // ...and then silence: the server must give up on its own.
    const auto outcome = server.value()->serve(*pipe->server);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_TRUE(outcome.value().idled_out);
    EXPECT_FALSE(outcome.value().ended_by_end_record);
}

TEST(ServeLifecycleTest, RequestStopDrainsAdmittedFramesAndFreezes) {
    const auto trace = small_trace();
    const detect::Registry registry;
    ServerOptions opts;
    opts.read_timeout_ms = 5;
    // The scorecard line written at the last frame is the signal that the
    // server has admitted every frame.
    opts.scorecard_every = trace.frames.size();
    opts.scorecard_path = ::testing::TempDir() + "/arpsec_serve_stop_scorecard.jsonl";
    std::remove(opts.scorecard_path.c_str());
    auto server = Server::create(registry, opts);
    ASSERT_TRUE(server.ok()) << server.error();

    auto pipe = make_pipe();
    ASSERT_TRUE(pipe.ok()) << pipe.error();
    const wire::Bytes script =
        encode_stream(trace, 0, trace.frames.size(), true, /*with_end=*/false);
    const auto all_admitted = [&] {
        std::ifstream in{opts.scorecard_path};
        std::string line;
        return static_cast<bool>(std::getline(in, line)) && !in.eof();
    };
    std::optional<common::Expected<ServeOutcome>> served;
    const std::string peer = exp::run_pair(
        [&] {
            (void)pipe->client->write_all(script);
            // Leave the stream open; ask for shutdown instead of sending END,
            // once the server has admitted everything written.
            for (int waited_ms = 0; waited_ms < 60000 && !all_admitted(); ++waited_ms) {
                exp::sleep_millis(1);
            }
            server.value()->request_stop();
        },
        [&] { served = server.value()->serve(*pipe->server); });
    EXPECT_EQ(peer, "");
    const auto& outcome = *served;
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_TRUE(outcome.value().stopped);
    EXPECT_FALSE(outcome.value().ended_by_end_record);
    // Everything written before the stop was admitted and processed.
    EXPECT_EQ(static_cast<std::size_t>(
                  outcome.value().summary.find("frames")->as_int()),
              trace.frames.size());
}

TEST(ServeLifecycleTest, RequestStopReachesAQuietStreamOnDefaultOptions) {
    // A client says HELLO and goes quiet. On default options each read is
    // bounded, so the intake notices request_stop() and serve() returns
    // promptly. The client hangs up only after 2 s when serve() has not
    // returned by then, so a read that blocks fails the checks below
    // instead of hanging the test.
    const detect::Registry registry;
    auto server = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.error();

    auto pipe = make_pipe();
    ASSERT_TRUE(pipe.ok()) << pipe.error();
    std::atomic<bool> returned{false};
    std::optional<common::Expected<ServeOutcome>> served;
    double serve_seconds = 0.0;
    const std::string peer = exp::run_pair(
        [&] {
            wire::Bytes hello;
            wire::encode_hello(hello, wire::StreamHello{});
            (void)pipe->client->write_all(hello);
            exp::sleep_millis(50);
            // Repeated: serve() clears the flag as it starts, so a request
            // that lands before that would be lost.
            const common::Stopwatch clock;
            while (!returned.load() && clock.elapsed_seconds() < 2.0) {
                server.value()->request_stop();
                exp::sleep_millis(10);
            }
            pipe->client->close();
        },
        [&] {
            const common::Stopwatch clock;
            served = server.value()->serve(*pipe->server);
            serve_seconds = clock.elapsed_seconds();
            returned.store(true);
        });
    EXPECT_EQ(peer, "");
    ASSERT_TRUE(served.has_value());
    ASSERT_TRUE(served->ok()) << served->error();
    EXPECT_TRUE(served->value().stopped);
    EXPECT_FALSE(served->value().ended_by_end_record);
    EXPECT_LT(serve_seconds, 1.0);
}

TEST(ServeLifecycleTest, ClientThatHangsUpGetsATypedWriteError) {
    // A whole stream with END, then the client hangs up before reading
    // anything back: every frame is still processed, but neither the alert
    // batches nor the summary reach it, and serve() says so.
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.error();

    auto pipe = make_pipe();
    ASSERT_TRUE(pipe.ok()) << pipe.error();
    ASSERT_TRUE(pipe->client->write_all(encode_stream(trace, 0, trace.frames.size())));
    pipe->client->close();
    const auto outcome = server.value()->serve(*pipe->server);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_EQ(static_cast<std::size_t>(outcome.value().summary.find("frames")->as_int()),
              trace.frames.size());
    EXPECT_TRUE(outcome.value().ended_by_end_record);
    const auto offline = canonical_lines(offline_alerts(trace));
    ASSERT_FALSE(offline.empty()) << "trace produced no alerts; test is vacuous";
    EXPECT_EQ(canonical_lines(outcome.value().alerts), offline);
    EXPECT_EQ(outcome.value().transport_error, "write to client failed");
    // Every alert was raised and counted, and none reached the client.
    EXPECT_EQ(server.value()->metrics().counter("serve.shard.0.alerts").value(),
              offline.size());
    EXPECT_EQ(server.value()->metrics().counter("serve.alerts.written").value(), 0u);
}

// ---------------------------------------------------------------------------
// socket listeners: the daemon's transports
// ---------------------------------------------------------------------------

// The summary of `script` served by a fresh default server over
// `server_end` while `client` plays it ("" after a failure).
std::string served_summary(Connection& client, Connection& server_end,
                           const wire::Bytes& script) {
    const detect::Registry registry;
    auto server = Server::create(registry, ServerOptions{});
    if (!server.ok()) {
        ADD_FAILURE() << server.error();
        return "";
    }
    const auto outcome = serve_script(*server.value(), client, server_end, script);
    if (!outcome.ok()) {
        ADD_FAILURE() << outcome.error();
        return "";
    }
    EXPECT_TRUE(outcome.value().ended_by_end_record);
    EXPECT_EQ(outcome.value().transport_error, "");
    return outcome.value().summary.dump();
}

std::string unix_socket_path() {
    return ::testing::TempDir() + "/arpsec_serve_" + std::to_string(::getpid()) + ".sock";
}

TEST(ServeTransportTest, UnixListenerServesLikeThePipe) {
    const auto trace = small_trace();
    const wire::Bytes script = encode_stream(trace, 0, 100);
    auto pipe = make_pipe();
    ASSERT_TRUE(pipe.ok()) << pipe.error();
    const std::string piped = served_summary(*pipe->client, *pipe->server, script);
    ASSERT_FALSE(piped.empty());

    const std::string path = unix_socket_path();
    auto listener = listen_unix(path);
    ASSERT_TRUE(listener.ok()) << listener.error();
    EXPECT_EQ(listener.value()->address(), "unix:" + path);
    auto client = connect_unix(path);  // the listen backlog holds it until accept
    ASSERT_TRUE(client.ok()) << client.error();
    auto accepted = listener.value()->accept(10000);
    ASSERT_TRUE(accepted.ok()) << accepted.error();
    EXPECT_EQ(served_summary(*client.value(), *accepted.value(), script), piped);
    listener.value()->close();
    EXPECT_FALSE(std::filesystem::exists(path)) << "close() left the socket file behind";
}

TEST(ServeTransportTest, TcpListenerOnAKernelPickedPortServesLikeThePipe) {
    const auto trace = small_trace();
    const wire::Bytes script = encode_stream(trace, 0, 100);
    auto pipe = make_pipe();
    ASSERT_TRUE(pipe.ok()) << pipe.error();
    const std::string piped = served_summary(*pipe->client, *pipe->server, script);
    ASSERT_FALSE(piped.empty());

    auto listener = listen_tcp(0);
    ASSERT_TRUE(listener.ok()) << listener.error();
    const std::string address = listener.value()->address();
    const std::string loopback = "tcp:127.0.0.1:";
    ASSERT_EQ(address.rfind(loopback, 0), 0u) << address;
    const int port = std::stoi(address.substr(loopback.size()));
    ASSERT_GT(port, 0) << address;
    auto client = connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port));
    ASSERT_TRUE(client.ok()) << client.error();
    auto accepted = listener.value()->accept(10000);
    ASSERT_TRUE(accepted.ok()) << accepted.error();
    EXPECT_EQ(served_summary(*client.value(), *accepted.value(), script), piped);
}

TEST(ServeTransportTest, IdleAcceptTimesOutWithTheTextTheDaemonPolls) {
    // arpsec-served polls accept() and keeps waiting on exactly this error.
    auto unix_listener = listen_unix(unix_socket_path());
    ASSERT_TRUE(unix_listener.ok()) << unix_listener.error();
    auto tcp_listener = listen_tcp(0);
    ASSERT_TRUE(tcp_listener.ok()) << tcp_listener.error();
    for (Listener* listener : {unix_listener.value().get(), tcp_listener.value().get()}) {
        SCOPED_TRACE(listener->address());
        const auto conn = listener->accept(0);
        ASSERT_FALSE(conn.ok());
        EXPECT_EQ(conn.error(), "accept: timed out");
    }
}

// ---------------------------------------------------------------------------
// snapshot / restore
// ---------------------------------------------------------------------------

TEST(ServeSnapshotTest, SnapshotRequiresACompletedServe) {
    const detect::Registry registry;
    auto server = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.error();
    EXPECT_FALSE(server.value()->write_snapshot(::testing::TempDir() + "/nope.json").ok());
}

TEST(ServeSnapshotTest, RestoreResumesExactlyWhereTheStreamFroze) {
    const auto trace = small_trace();
    const std::size_t half = trace.frames.size() / 2;
    const std::string snap_path = ::testing::TempDir() + "/arpsec_serve_snap.json";
    const detect::Registry registry;
    // s-arp observes nothing at this vantage, but its key server transmits
    // at start: a stop must still catch its clock up to the frames fed.
    std::vector<std::string> schemes = kMonitorSchemes;
    schemes.push_back("s-arp");

    std::vector<detect::Alert> offline_all;
    for (const std::string& scheme : schemes) {
        const auto alerts = offline_alerts(trace, scheme);
        offline_all.insert(offline_all.end(), alerts.begin(), alerts.end());
    }
    const auto offline = canonical_lines(std::move(offline_all));
    ASSERT_FALSE(offline.empty()) << "trace produced no alerts; test is vacuous";

    for (const std::size_t shards : {1, 2, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        ServerOptions opts;
        opts.schemes = schemes;
        opts.shards = shards;

        // Leg 1: first half, no END, client hangs up — state freezes with no
        // grace window, exactly what the snapshot must capture.
        auto first = Server::create(registry, opts);
        ASSERT_TRUE(first.ok()) << first.error();
        const auto leg1 = serve_script(*first.value(),
                                       encode_stream(trace, 0, half, true, false),
                                       /*close_after=*/true);
        ASSERT_TRUE(leg1.ok()) << leg1.error();
        EXPECT_FALSE(leg1.value().ended_by_end_record);
        const auto snap = first.value()->write_snapshot(snap_path);
        ASSERT_TRUE(snap.ok()) << snap.error();

        // Leg 2: a fresh server restores the snapshot and serves the rest.
        opts.restore_path = snap_path;
        auto second = Server::create(registry, opts);
        ASSERT_TRUE(second.ok()) << second.error();
        const auto leg2 = serve_script(
            *second.value(), encode_stream(trace, half, trace.frames.size()));
        ASSERT_TRUE(leg2.ok()) << leg2.error();
        EXPECT_TRUE(leg2.value().ended_by_end_record);

        // The snapshot keeps each session's alert count although the alerts
        // themselves moved into the outcome.
        std::ifstream in{snap_path};
        std::ostringstream text;
        text << in.rdbuf();
        const auto parsed = telemetry::Json::parse(text.str());
        ASSERT_TRUE(parsed.has_value());
        ASSERT_FALSE(leg1.value().alerts.empty()) << "leg 1 raised no alerts; check is vacuous";
        for (const std::string& scheme : schemes) {
            std::int64_t counted = 0;
            for (const telemetry::Json& state : parsed->find("shard_states")->as_array()) {
                for (const telemetry::Json& row : state.find("sessions")->as_array()) {
                    if (row.find("scheme")->as_string() == scheme) {
                        counted += row.find("alerts")->as_int();
                    }
                }
            }
            EXPECT_EQ(counted, std::count_if(leg1.value().alerts.begin(),
                                             leg1.value().alerts.end(),
                                             [&](const detect::Alert& a) {
                                                 return a.scheme == scheme;
                                             }))
                << scheme;
        }

        // The union of both legs' alerts is the offline single-run alert set.
        std::vector<detect::Alert> combined = leg1.value().alerts;
        combined.insert(combined.end(), leg2.value().alerts.begin(),
                        leg2.value().alerts.end());
        EXPECT_EQ(canonical_lines(std::move(combined)), offline);
    }
}

TEST(ServeSnapshotTest, RestoreRejectsSeedMismatch) {
    const auto trace = small_trace();
    const std::string snap_path = ::testing::TempDir() + "/arpsec_serve_seedmm.json";
    const detect::Registry registry;

    auto first = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(first.ok()) << first.error();
    const auto leg1 = serve_script(*first.value(), encode_stream(trace, 0, 50, true, false),
                                   /*close_after=*/true);
    ASSERT_TRUE(leg1.ok()) << leg1.error();
    ASSERT_TRUE(first.value()->write_snapshot(snap_path).ok());

    ServerOptions opts;
    opts.restore_path = snap_path;
    auto second = Server::create(registry, opts);
    ASSERT_TRUE(second.ok()) << second.error();

    wire::Bytes script;
    wire::StreamHello hello;
    hello.seed = trace.seed + 17;  // not the snapshot's seed
    wire::encode_hello(script, hello);
    wire::encode_end(script);
    EXPECT_FALSE(serve_script(*second.value(), script).ok());
}

TEST(ServeSnapshotTest, RestoreRejectsMismatchedTopology) {
    const auto trace = small_trace();
    const std::string snap_path = ::testing::TempDir() + "/arpsec_serve_topomm.json";
    const detect::Registry registry;

    auto first = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(first.ok()) << first.error();
    const auto leg1 = serve_script(*first.value(), encode_stream(trace, 0, 50, true, false),
                                   /*close_after=*/true);
    ASSERT_TRUE(leg1.ok()) << leg1.error();
    ASSERT_TRUE(first.value()->write_snapshot(snap_path).ok());

    ServerOptions opts;
    opts.shards = 2;  // snapshot was taken with 1
    opts.restore_path = snap_path;
    auto second = Server::create(registry, opts);
    ASSERT_TRUE(second.ok()) << second.error();
    EXPECT_FALSE(serve_script(*second.value(), encode_stream(trace, 50, 60)).ok());

    // A v1 snapshot split its stations by the old subnet key: restored here,
    // they would sit on shards that no longer see their frames.
    std::ifstream in{snap_path};
    std::ostringstream text;
    text << in.rdbuf();
    auto v1 = telemetry::Json::parse(text.str());
    ASSERT_TRUE(v1.has_value());
    (*v1)["schema"] = "arpsec.serve-snapshot.v1";
    const std::string v1_path = ::testing::TempDir() + "/arpsec_serve_v1.json";
    {
        std::ofstream out{v1_path};
        out << v1->dump(2) << "\n";
    }
    ServerOptions v1_opts;
    v1_opts.restore_path = v1_path;
    auto third = Server::create(registry, v1_opts);
    ASSERT_TRUE(third.ok()) << third.error();
    const auto refused = serve_script(*third.value(), encode_stream(trace, 50, 60));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error(), std::string{"snapshot: schema is not "} + kSnapshotSchema);
}

// Copy of JSON object `obj` without member `key`.
telemetry::Json without(const telemetry::Json& obj, const std::string& key) {
    telemetry::Json out = telemetry::Json::object();
    for (const auto& [k, v] : obj.as_object()) {
        if (k != key) out[k] = v;
    }
    return out;
}

TEST(ServeSnapshotTest, RestoreRejectsMalformedShardState) {
    const auto trace = small_trace();
    const std::string snap_path = ::testing::TempDir() + "/arpsec_serve_shardstate.json";
    const std::string bad_path = ::testing::TempDir() + "/arpsec_serve_shardstate_bad.json";
    const detect::Registry registry;

    auto first = Server::create(registry, ServerOptions{});
    ASSERT_TRUE(first.ok()) << first.error();
    const auto leg1 = serve_script(*first.value(), encode_stream(trace, 0, 50, true, false),
                                   /*close_after=*/true);
    ASSERT_TRUE(leg1.ok()) << leg1.error();
    ASSERT_TRUE(first.value()->write_snapshot(snap_path).ok());

    std::ifstream in{snap_path};
    std::ostringstream text;
    text << in.rdbuf();
    const auto snapshot = telemetry::Json::parse(text.str());
    ASSERT_TRUE(snapshot.has_value());
    const telemetry::Json& shard0 = snapshot->find("shard_states")->at(0);
    const telemetry::Json& session0 = shard0.find("sessions")->at(0);

    // Each defect rewrites shard 0's state; the rest of the file stays valid.
    const auto with_session = [&](const telemetry::Json& session) {
        telemetry::Json shard = shard0;
        telemetry::Json sessions = telemetry::Json::array();
        sessions.push_back(session);
        shard["sessions"] = std::move(sessions);
        return shard;
    };
    telemetry::Json shard_not_int = shard0;
    shard_not_int["shard"] = "0";
    telemetry::Json sessions_not_array = shard0;
    sessions_not_array["sessions"] = telemetry::Json::object();
    telemetry::Json scheme_not_string = session0;
    scheme_not_string["scheme"] = 7;
    telemetry::Json scheme_unknown = session0;
    scheme_unknown["scheme"] = "dai";  // registered, but not configured here

    const std::pair<const char*, telemetry::Json> defects[] = {
        {"shard missing", without(shard0, "shard")},
        {"shard not an int", shard_not_int},
        {"sessions missing", without(shard0, "sessions")},
        {"sessions not an array", sessions_not_array},
        {"scheme missing", with_session(without(session0, "scheme"))},
        {"scheme not a string", with_session(scheme_not_string)},
        {"scheme not configured", with_session(scheme_unknown)},
    };
    for (const auto& [name, shard] : defects) {
        SCOPED_TRACE(name);
        telemetry::Json tampered = *snapshot;
        telemetry::Json states = telemetry::Json::array();
        states.push_back(shard);
        tampered["shard_states"] = std::move(states);
        {
            std::ofstream out{bad_path};
            out << tampered.dump(2) << "\n";
        }

        ServerOptions opts;
        opts.restore_path = bad_path;
        auto second = Server::create(registry, opts);
        ASSERT_TRUE(second.ok()) << second.error();
        const auto served = serve_script(*second.value(), encode_stream(trace, 50, 60));
        ASSERT_FALSE(served.ok());
        EXPECT_NE(served.error().find("snapshot"), std::string::npos) << served.error();
    }
}

}  // namespace
}  // namespace arpsec::serve
