// Robustness / fuzz tests across the receive pipelines: hosts, switches
// and monitors must survive arbitrary byte streams on the wire (malformed
// frames, truncated packets, random auth trailers) without crashing or
// corrupting state. The adversary controls every byte of its frames, so
// parser hardening is part of the threat model. The byte generator itself
// lives in check::FuzzerNode so the DST checker and these tests exercise
// the same adversarial distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/fuzzer_node.hpp"
#include "detect/monitor.hpp"
#include "lint/lexer.hpp"
#include "lint/linter.hpp"
#include "detect/registry.hpp"
#include "host/host.hpp"
#include "host/tcp.hpp"
#include "l2/switch.hpp"
#include "serve/shard.hpp"
#include "sim/network.hpp"
#include "wire/binding_key.hpp"
#include "wire/dhcp_message.hpp"
#include "wire/pcap_reader.hpp"
#include "wire/stream_codec.hpp"
#include "wire/udp_datagram.hpp"

namespace arpsec {
namespace {

using check::FuzzerNode;
using common::Duration;
using common::SimTime;
using wire::Bytes;
using wire::Ipv4Address;
using wire::MacAddress;

class PipelineFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzzTest, HostAndSwitchSurviveGarbage) {
    sim::Network net(GetParam());
    auto& sw = net.emplace_node<l2::Switch>("switch", 6);

    host::HostConfig cfg;
    cfg.name = "victim";
    cfg.mac = MacAddress::local(10);
    cfg.static_ip = Ipv4Address{192, 168, 1, 10};
    auto& victim = net.emplace_node<host::Host>(cfg);
    net.connect({victim.id(), 0}, {sw.id(), 0});
    host::TcpStack tcp(victim);
    tcp.listen(80, [](host::TcpStack::Connection&) {});

    auto& fuzzer = net.emplace_node<FuzzerNode>("fuzzer", GetParam() ^ 0xF0, victim.mac());
    net.connect({fuzzer.id(), 0}, {sw.id(), 1});

    net.start_all();
    net.scheduler().run_until(SimTime::zero() + Duration::seconds(2));

    // Nothing crashed; the victim is still functional.
    EXPECT_GT(sw.forward_stats().received, 1000u);
    EXPECT_GT(fuzzer.frames_sent(), 1000u);
    bool alive = false;
    victim.bind_udp(9, [&](host::Host&, const host::UdpRxInfo&, const Bytes&) {});
    victim.resolve(Ipv4Address{192, 168, 1, 10}, [&](auto) { alive = true; });
    // Self-resolution is a no-op, but the engine should still answer a
    // fresh resolve toward a live peer.
    host::HostConfig pcfg;
    pcfg.name = "peer";
    pcfg.mac = MacAddress::local(11);
    pcfg.static_ip = Ipv4Address{192, 168, 1, 11};
    auto& peer = net.emplace_node<host::Host>(pcfg);
    net.connect({peer.id(), 0}, {sw.id(), 2});
    net.scheduler().run_until(net.now() + Duration::seconds(1));
    std::optional<MacAddress> resolved;
    victim.resolve(Ipv4Address{192, 168, 1, 11}, [&](auto mac) { resolved = mac; });
    net.scheduler().run_until(net.now() + Duration::seconds(5));
    EXPECT_EQ(resolved, peer.mac());
    (void)alive;
}

TEST_P(PipelineFuzzTest, SchemesSurviveGarbageAtEveryVantage) {
    // Deploy each scheme on a fuzzed LAN; no scheme may crash, whatever it
    // alerts on is its own business.
    for (const auto& reg : detect::all_schemes()) {
        sim::Network net(GetParam() ^ 0xABCD);
        auto& sw = net.emplace_node<l2::Switch>("switch", 8);

        host::HostConfig cfg;
        cfg.name = "h0";
        cfg.mac = MacAddress::local(10);
        cfg.static_ip = Ipv4Address{192, 168, 1, 10};
        auto& h0 = net.emplace_node<host::Host>(cfg);
        net.connect({h0.id(), 0}, {sw.id(), 0});

        auto& monitor =
            net.emplace_node<detect::MonitorNode>("monitor", MacAddress::local(0x999));
        net.connect({monitor.id(), 0}, {sw.id(), 1});
        sw.set_mirror_port(1);

        auto& fuzzer =
            net.emplace_node<FuzzerNode>("fuzzer", GetParam() ^ 0xF1, h0.mac());
        net.connect({fuzzer.id(), 0}, {sw.id(), 2});

        auto scheme = reg.make();
        detect::AlertSink alerts;
        crypto::OpCounters ops;
        sim::PortId next_port = 3;
        detect::DeploymentContext ctx;
        ctx.net = &net;
        ctx.fabric = &sw;
        ctx.alerts = &alerts;
        ctx.ops = &ops;
        ctx.directory = {{"h0", Ipv4Address{192, 168, 1, 10}, h0.mac()}};
        ctx.attach_infra = [&](sim::NodeId id) {
            const sim::PortId port = next_port++;
            net.connect({id, 0}, {sw.id(), port});
            sw.set_trusted_port(port, true);
            return port;
        };
        std::uint32_t infra = 0;
        ctx.alloc_infra_ip = [&] {
            return Ipv4Address{192, 168, 1, static_cast<std::uint8_t>(240 + infra++)};
        };
        scheme->deploy(ctx);
        scheme->configure_switch(sw);
        scheme->protect_host(h0);
        scheme->attach_monitor(monitor);

        net.start_all();
        net.scheduler().run_until(SimTime::zero() + Duration::seconds(1));
        SUCCEED() << reg.name;  // reaching here without crashing is the test
    }
}

TEST(FuzzerNodeTest, DeterministicPerSeed) {
    // Two fuzzers with the same seed against identical topologies drive the
    // switch to identical counters — the generator is a pure function of
    // its seed, which is what lets the DST checker replay fuzzed runs.
    auto run = [](std::uint64_t seed) {
        sim::Network net(7);
        auto& sw = net.emplace_node<l2::Switch>("switch", 4);
        host::HostConfig cfg;
        cfg.name = "victim";
        cfg.mac = MacAddress::local(10);
        cfg.static_ip = Ipv4Address{192, 168, 1, 10};
        auto& victim = net.emplace_node<host::Host>(cfg);
        net.connect({victim.id(), 0}, {sw.id(), 0});
        auto& fuzzer = net.emplace_node<FuzzerNode>("fuzzer", seed, victim.mac());
        net.connect({fuzzer.id(), 0}, {sw.id(), 1});
        net.start_all();
        net.scheduler().run_until(SimTime::zero() + Duration::seconds(1));
        // flooded/unicast split depends on the fuzzer's dst choices, so it
        // is sensitive to the generated byte stream, not just the count.
        return std::tuple{sw.forward_stats().received, sw.forward_stats().flooded,
                          fuzzer.frames_sent()};
    };
    EXPECT_EQ(run(99), run(99));
    EXPECT_NE(std::get<1>(run(99)), std::get<1>(run(100)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest, ::testing::Values(1, 42, 777, 31337));

// ---------------------------------------------------------------------------
// PcapReader fuzz: the replay ingestion path parses attacker-controlled
// files, so it gets the same adversarial corpus as the wire parsers.
// ---------------------------------------------------------------------------

namespace {

void le32(Bytes& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

/// A structurally valid pcap carrying FuzzerNode-generated frames.
Bytes fuzzed_capture(common::Rng& rng, std::size_t records) {
    FuzzerNode::Options opts;
    opts.target = MacAddress::local(10);
    Bytes data;
    le32(data, 0xa1b2c3d4u);
    le32(data, 0x00040002u);  // version 2.4 (LE)
    le32(data, 0);
    le32(data, 0);
    le32(data, 65535);
    le32(data, 1);
    for (std::size_t i = 0; i < records; ++i) {
        const Bytes frame = FuzzerNode::generate_frame(rng, opts).serialize();
        le32(data, static_cast<std::uint32_t>(i));  // ts_sec
        le32(data, static_cast<std::uint32_t>(rng.next_below(1000000)));
        le32(data, static_cast<std::uint32_t>(frame.size()));
        le32(data, static_cast<std::uint32_t>(frame.size()));
        data.insert(data.end(), frame.begin(), frame.end());
    }
    return data;
}

/// What PcapStreamReader makes of a capture: its records up to the first
/// error, and that error's text (empty when the stream ended cleanly).
struct StreamOutcome {
    std::vector<wire::PcapRecord> records;
    std::string error;
};

/// Feeds `data` in one piece, or in chunks of 1..300 bytes drawn from
/// `rng` when it is non-null, polling the decoder dry after every feed.
StreamOutcome stream_decode(std::span<const std::uint8_t> data, common::Rng* rng) {
    wire::PcapStreamReader reader;
    StreamOutcome out;
    const auto drain = [&] {
        wire::PcapRecord rec;
        for (;;) {
            const auto status = reader.poll(rec);
            if (status != wire::PcapStreamReader::Status::kRecord) {
                if (status == wire::PcapStreamReader::Status::kError) {
                    out.error = reader.last_error();
                }
                return status;
            }
            out.records.push_back(std::move(rec));
            rec = {};
        }
    };
    while (!data.empty()) {
        const std::size_t n = rng == nullptr
                                  ? data.size()
                                  : std::min<std::size_t>(data.size(), 1 + rng->next_below(300));
        reader.feed(data.first(n));
        data = data.subspan(n);
        if (drain() == wire::PcapStreamReader::Status::kError) return out;
    }
    reader.finish();
    drain();
    return out;
}

/// Seeded random chunking must not change what the decoder reports: the
/// same records, or the same error text.
void expect_chunking_invariant(std::span<const std::uint8_t> data, std::uint64_t seed) {
    const StreamOutcome whole = stream_decode(data, nullptr);
    common::Rng rng(seed);
    const StreamOutcome chunked = stream_decode(data, &rng);
    EXPECT_EQ(chunked.error, whole.error);
    ASSERT_EQ(chunked.records.size(), whole.records.size());
    for (std::size_t i = 0; i < whole.records.size(); ++i) {
        EXPECT_EQ(chunked.records[i].at.nanos(), whole.records[i].at.nanos()) << "record " << i;
        EXPECT_EQ(chunked.records[i].orig_len, whole.records[i].orig_len) << "record " << i;
        EXPECT_EQ(chunked.records[i].bytes, whole.records[i].bytes) << "record " << i;
    }
}

}  // namespace

class PcapReaderFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcapReaderFuzzTest, ParsesWellFormedFuzzedCaptures) {
    common::Rng rng(GetParam());
    const Bytes data = fuzzed_capture(rng, 50);
    const auto trace = wire::PcapReader::parse(data);
    ASSERT_TRUE(trace.ok()) << trace.error();
    EXPECT_EQ(trace->records.size(), 50u);
    expect_chunking_invariant(data, GetParam());
}

TEST_P(PcapReaderFuzzTest, SurvivesTruncationAtEveryLength) {
    // Every prefix of a valid capture must parse or fail with a typed
    // error — never crash, never read past the end (ASan/UBSan enforce).
    common::Rng rng(GetParam() ^ 0x7137);
    const Bytes data = fuzzed_capture(rng, 8);
    for (std::size_t len = 0; len <= data.size(); ++len) {
        SCOPED_TRACE("length " + std::to_string(len));
        const std::span<const std::uint8_t> prefix{data.data(), len};
        const auto trace = wire::PcapReader::parse(prefix);
        if (!trace.ok()) {
            EXPECT_FALSE(trace.error().empty());
        }
        expect_chunking_invariant(prefix, GetParam() + len);
    }
}

TEST_P(PcapReaderFuzzTest, SurvivesByteMutations) {
    common::Rng rng(GetParam() ^ 0xBEEF);
    Bytes data = fuzzed_capture(rng, 20);
    for (int round = 0; round < 200; ++round) {
        Bytes mutated = data;
        // Flip a handful of bytes anywhere — headers, lengths, bodies.
        const std::size_t flips = 1 + rng.next_below(8);
        for (std::size_t i = 0; i < flips; ++i) {
            mutated[rng.next_below(mutated.size())] =
                static_cast<std::uint8_t>(rng.next_u64());
        }
        const auto trace = wire::PcapReader::parse(mutated);
        if (!trace.ok()) {
            EXPECT_FALSE(trace.error().empty());
        }
        expect_chunking_invariant(mutated, GetParam() + static_cast<std::uint64_t>(round));
    }
}

TEST_P(PcapReaderFuzzTest, SurvivesPureGarbage) {
    common::Rng rng(GetParam() ^ 0x6A6A);
    for (int round = 0; round < 100; ++round) {
        Bytes garbage(rng.next_below(512));
        for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next_u64());
        const auto trace = wire::PcapReader::parse(garbage);
        if (!trace.ok()) {
            EXPECT_FALSE(trace.error().empty());
        }
        expect_chunking_invariant(garbage, GetParam() + static_cast<std::uint64_t>(round));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcapReaderFuzzTest,
                         ::testing::Values(1, 42, 777, 31337));

// ---------------------------------------------------------------------------
// Lexer fuzz: arpsec-lint's lexer runs over every file in the tree, including
// whatever a contributor manages to commit, so it gets the same adversarial
// corpus. Invariants: never crash, every token span stays inside the input
// and round-trips through substr.
// ---------------------------------------------------------------------------

void check_lex_invariants(const std::string& input) {
    const auto tokens = lint::lex(input);
    for (const lint::Token& t : tokens) {
        ASSERT_LE(t.offset, input.size());
        ASSERT_LE(t.text.size(), input.size() - t.offset);
        ASSERT_EQ(std::string_view{input}.substr(t.offset, t.text.size()), t.text);
        ASSERT_GE(t.line, 1u);
        ASSERT_GE(t.col, 1u);
        ASSERT_FALSE(t.text.empty());
    }
    // The stripper shares the region scanner; it must preserve length and
    // line structure on any input.
    const std::string stripped = lint::strip_comments_and_strings(input);
    ASSERT_EQ(stripped.size(), input.size());
    ASSERT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
              std::count(input.begin(), input.end(), '\n'));
}

class LexerFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LexerFuzzTest, SurvivesFuzzerNodeCorpus) {
    // Raw adversarial frames reinterpreted as "source text": arbitrary
    // bytes, embedded NULs, no trailing newline.
    common::Rng rng(GetParam() ^ 0x1E0);
    FuzzerNode::Options opts;
    opts.target = MacAddress::local(10);
    for (int round = 0; round < 200; ++round) {
        const Bytes frame = FuzzerNode::generate_frame(rng, opts).serialize();
        check_lex_invariants(std::string{frame.begin(), frame.end()});
    }
}

TEST_P(LexerFuzzTest, SurvivesMutatedSource) {
    // Start from plausible C++ and corrupt it: unterminated literals, raw
    // strings with mangled delimiters, stray quotes and separators.
    const std::string seedling =
        "#include <vector>\n"
        "auto r = u8R\"x(raw \" text)x\"; int n = 1'000;\n"
        "const char* s = \"esc \\\" ape\"; char c = '\\n';\n"
        "int f(std::span<const std::uint8_t> d) { return d[0] << 8; } // tail\n";
    common::Rng rng(GetParam() ^ 0x1E1);
    for (int round = 0; round < 300; ++round) {
        std::string mutated = seedling;
        const std::size_t flips = 1 + rng.next_below(6);
        for (std::size_t i = 0; i < flips; ++i) {
            mutated[rng.next_below(mutated.size())] =
                static_cast<char>(rng.next_u64());
        }
        check_lex_invariants(mutated);
    }
}

TEST_P(LexerFuzzTest, SurvivesTruncationAtEveryLength) {
    const std::string source =
        "auto a = R\"delim(body)delim\"; /* block */ auto b = 0x1'F2p3; // eol\n";
    for (std::size_t len = 0; len <= source.size(); ++len) {
        check_lex_invariants(source.substr(0, len));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LexerFuzzTest, ::testing::Values(1, 42, 777, 31337));

// ---------------------------------------------------------------------------
// Stream codec fuzz: arpsec-served decodes `arpsec.stream.v1` records from
// whatever a client puts on the socket, so the decoder gets the same
// adversarial corpus as the wire parsers. Invariants: never crash, never
// read past the input (ASan/UBSan enforce), bad bodies are skipped with
// typed errors, and only a corrupt length prefix latches fatal.
// ---------------------------------------------------------------------------

namespace {

/// A fully valid conversation: HELLO, DIRECTORY, FuzzerNode frames, an
/// alert/summary pair (the server->client direction), and END.
Bytes fuzzed_stream(common::Rng& rng, std::size_t frames) {
    FuzzerNode::Options opts;
    opts.target = MacAddress::local(10);
    Bytes out;
    wire::StreamHello hello;
    hello.seed = rng.next_u64() | 1;
    wire::encode_hello(out, hello);
    std::vector<wire::StreamHostEntry> entries;
    entries.push_back({"h0", Ipv4Address{192, 168, 1, 1}, MacAddress::local(1)});
    entries.push_back({"h1", Ipv4Address{192, 168, 1, 2}, MacAddress::local(2)});
    wire::encode_directory(out, entries);
    for (std::size_t i = 0; i < frames; ++i) {
        const Bytes frame = FuzzerNode::generate_frame(rng, opts).serialize();
        wire::encode_frame(out, i * 1000,
                           std::span<const std::uint8_t>{frame.data(), frame.size()});
    }
    wire::encode_alert(out, "{\"at_ns\":1,\"scheme\":\"arpwatch\"}");
    wire::encode_summary(out, "{\"schema\":\"arpsec.serve-summary.v1\"}");
    wire::encode_end(out);
    return out;
}

/// Drains the decoder, asserting the typed-error contract on every status.
/// Returns the number of good records.
std::uint64_t drain_stream_decoder(wire::StreamDecoder& decoder) {
    wire::StreamRecord rec;
    std::uint64_t records = 0;
    for (;;) {
        const auto st = decoder.poll(rec);
        if (st == wire::StreamDecoder::Status::kNeedMore) break;
        if (st == wire::StreamDecoder::Status::kRecord) {
            ++records;
            continue;
        }
        EXPECT_FALSE(decoder.last_error().empty());
        if (st == wire::StreamDecoder::Status::kFatal) {
            EXPECT_TRUE(decoder.fatal());
            break;
        }
    }
    return records;
}

}  // namespace

class StreamCodecFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamCodecFuzzTest, DecodesWellFormedFuzzedStreams) {
    common::Rng rng(GetParam());
    const Bytes data = fuzzed_stream(rng, 40);
    wire::StreamDecoder decoder;
    decoder.feed(data);
    // hello + directory + 40 frames + alert + summary + end
    EXPECT_EQ(drain_stream_decoder(decoder), 45u);
    EXPECT_FALSE(decoder.fatal());
    EXPECT_EQ(decoder.buffered(), 0u);
}

TEST_P(StreamCodecFuzzTest, ChunkSizeNeverChangesTheRecords) {
    // Transport chunking is arbitrary; any slicing of the byte stream must
    // reassemble to the same record sequence.
    common::Rng rng(GetParam() ^ 0xC4A7);
    const Bytes data = fuzzed_stream(rng, 20);
    wire::StreamDecoder decoder;
    std::uint64_t records = 0;
    std::size_t pos = 0;
    while (pos < data.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng.next_below(97), data.size() - pos);
        decoder.feed(std::span<const std::uint8_t>{data.data() + pos, chunk});
        pos += chunk;
        records += drain_stream_decoder(decoder);
    }
    EXPECT_EQ(records, 25u);
    EXPECT_FALSE(decoder.fatal());
}

TEST_P(StreamCodecFuzzTest, SurvivesTruncationAtEveryLength) {
    // Every prefix of a valid stream decodes some whole records and then
    // reports kNeedMore — truncation is never a crash or a fatal.
    common::Rng rng(GetParam() ^ 0x7137);
    const Bytes data = fuzzed_stream(rng, 6);
    for (std::size_t len = 0; len <= data.size(); ++len) {
        wire::StreamDecoder decoder;
        decoder.feed(std::span<const std::uint8_t>{data.data(), len});
        (void)drain_stream_decoder(decoder);
        EXPECT_FALSE(decoder.fatal()) << "length " << len;
    }
}

TEST_P(StreamCodecFuzzTest, SurvivesByteMutations) {
    common::Rng rng(GetParam() ^ 0xBEEF);
    const Bytes data = fuzzed_stream(rng, 12);
    for (int round = 0; round < 200; ++round) {
        Bytes mutated = data;
        const std::size_t flips = 1 + rng.next_below(8);
        for (std::size_t i = 0; i < flips; ++i) {
            mutated[rng.next_below(mutated.size())] =
                static_cast<std::uint8_t>(rng.next_u64());
        }
        wire::StreamDecoder decoder;
        decoder.feed(mutated);
        (void)drain_stream_decoder(decoder);
    }
}

TEST_P(StreamCodecFuzzTest, OversizedLengthPrefixLatchesFatal) {
    common::Rng rng(GetParam() ^ 0x0F5E);
    Bytes data = fuzzed_stream(rng, 3);
    // A length prefix beyond kMaxRecordBytes means framing is gone.
    const std::uint32_t huge = wire::StreamDecoder::kMaxRecordBytes + 1 +
                               static_cast<std::uint32_t>(rng.next_below(1 << 20));
    data.push_back(static_cast<std::uint8_t>(huge >> 24));
    data.push_back(static_cast<std::uint8_t>(huge >> 16));
    data.push_back(static_cast<std::uint8_t>(huge >> 8));
    data.push_back(static_cast<std::uint8_t>(huge));
    wire::StreamDecoder decoder;
    decoder.feed(data);
    EXPECT_EQ(drain_stream_decoder(decoder), 8u);
    EXPECT_TRUE(decoder.fatal());
    // Fatal is latched: more bytes never resurrect the stream.
    decoder.feed(data);
    wire::StreamRecord rec;
    EXPECT_EQ(decoder.poll(rec), wire::StreamDecoder::Status::kFatal);
}

TEST_P(StreamCodecFuzzTest, SurvivesPureGarbage) {
    common::Rng rng(GetParam() ^ 0x6A6A);
    for (int round = 0; round < 100; ++round) {
        Bytes garbage(rng.next_below(512));
        for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next_u64());
        wire::StreamDecoder decoder;
        decoder.feed(garbage);
        (void)drain_stream_decoder(decoder);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamCodecFuzzTest,
                         ::testing::Values(1, 42, 777, 31337));

// ---------------------------------------------------------------------------
// Routing-key fuzz: arpsec-served reads wire::binding_key() from every frame
// a client sends, before any parser has looked at it. Invariants: never read
// past the frame (each case is an exactly-sized heap copy, so ASan sees any
// overrun) and the shard index is always below the shard count.
// ---------------------------------------------------------------------------

namespace {

/// One frame per branch of the key reader: an ARP reply, a plain UDP
/// datagram and a DHCP ACK, with random addresses.
std::vector<Bytes> key_corpus(common::Rng& rng) {
    const auto random_ip = [&] {
        return Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())};
    };
    const MacAddress mac = MacAddress::local(rng.next_u64() & 0xFFFFFFFFFFULL);
    const auto frame = [&](wire::EtherType type, Bytes payload) {
        wire::EthernetFrame f;
        f.src = mac;
        f.dst = MacAddress::broadcast();
        f.ether_type = type;
        f.payload = std::move(payload);
        return f.serialize();
    };
    const auto udp_frame = [&](std::uint16_t dst_port, Bytes payload) {
        wire::UdpDatagram udp;
        udp.src_port = static_cast<std::uint16_t>(rng.next_u64());
        udp.dst_port = dst_port;
        udp.payload = std::move(payload);
        wire::Ipv4Packet ip;
        ip.src = random_ip();
        ip.dst = random_ip();
        ip.payload = udp.serialize();
        return frame(wire::EtherType::kIpv4, ip.serialize());
    };
    wire::DhcpMessage ack;
    ack.op = 2;
    ack.message_type = wire::DhcpMessageType::kAck;
    ack.yiaddr = random_ip();
    ack.ciaddr = rng.chance(0.5) ? random_ip() : Ipv4Address::any();
    ack.chaddr = mac;
    Bytes junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    return {
        frame(wire::EtherType::kArp,
              wire::ArpPacket::reply(mac, random_ip(), MacAddress::local(1), random_ip())
                  .serialize()),
        udp_frame(static_cast<std::uint16_t>(rng.next_u64()), junk),
        udp_frame(wire::DhcpMessage::kClientPort, ack.serialize()),
    };
}

void check_routing_key(std::span<const std::uint8_t> bytes) {
    const Bytes frame(bytes.begin(), bytes.end());  // exactly sized for ASan
    (void)wire::binding_key(frame);
    for (const std::size_t shards : {1, 2, 3, 4, 8}) {
        EXPECT_LT(serve::shard_of(frame, shards), shards) << frame.size() << " bytes";
    }
}

}  // namespace

class BindingKeyFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BindingKeyFuzzTest, SurvivesTruncationAtEveryLength) {
    common::Rng rng(GetParam() ^ 0x7137);
    for (const Bytes& frame : key_corpus(rng)) {
        for (std::size_t len = 0; len <= frame.size(); ++len) {
            check_routing_key(std::span<const std::uint8_t>{frame.data(), len});
        }
    }
}

TEST_P(BindingKeyFuzzTest, SurvivesByteMutations) {
    common::Rng rng(GetParam() ^ 0xBEEF);
    for (int round = 0; round < 200; ++round) {
        for (Bytes frame : key_corpus(rng)) {
            const std::size_t flips = 1 + rng.next_below(8);
            for (std::size_t i = 0; i < flips; ++i) {
                frame[rng.next_below(frame.size())] = static_cast<std::uint8_t>(rng.next_u64());
            }
            check_routing_key(frame);
        }
    }
}

TEST_P(BindingKeyFuzzTest, SurvivesPureGarbage) {
    common::Rng rng(GetParam() ^ 0x6A6A);
    FuzzerNode::Options opts;
    opts.target = MacAddress::local(10);
    for (int round = 0; round < 200; ++round) {
        Bytes garbage(rng.next_below(512));
        for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next_u64());
        check_routing_key(garbage);
        check_routing_key(FuzzerNode::generate_frame(rng, opts).serialize());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BindingKeyFuzzTest, ::testing::Values(1, 42, 777, 31337));

}  // namespace
}  // namespace arpsec
