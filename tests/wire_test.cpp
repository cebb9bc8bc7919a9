#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exp/executor.hpp"
#include "wire/arp_packet.hpp"
#include "wire/checksum.hpp"
#include "wire/dhcp_message.hpp"
#include "wire/ethernet.hpp"
#include "wire/frame.hpp"
#include "wire/ipv4_packet.hpp"
#include "wire/mac_address.hpp"
#include "wire/pcap_reader.hpp"
#include "wire/pcap_writer.hpp"
#include "wire/stream_codec.hpp"
#include "wire/tcp_segment.hpp"
#include "wire/udp_datagram.hpp"

namespace arpsec::wire {
namespace {

// ---------------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------------

TEST(MacAddressTest, FormatAndParseRoundTrip) {
    const MacAddress m{0x4C, 0x34, 0x88, 0x5E, 0xEA, 0x85};
    EXPECT_EQ(m.to_string(), "4c:34:88:5e:ea:85");
    const auto parsed = MacAddress::parse("4c:34:88:5e:ea:85");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), m);
}

TEST(MacAddressTest, ParsesDashSeparators) {
    const auto parsed = MacAddress::parse("4C-34-88-5E-EA-85");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->to_string(), "4c:34:88:5e:ea:85");
}

TEST(MacAddressTest, RejectsMalformed) {
    EXPECT_FALSE(MacAddress::parse("").ok());
    EXPECT_FALSE(MacAddress::parse("4c:34:88:5e:ea").ok());
    EXPECT_FALSE(MacAddress::parse("4c:34:88:5e:ea:8g").ok());
    EXPECT_FALSE(MacAddress::parse("4c.34.88.5e.ea.85").ok());
}

TEST(MacAddressTest, Classification) {
    EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
    EXPECT_TRUE(MacAddress::broadcast().is_multicast());
    EXPECT_TRUE(MacAddress::zero().is_zero());
    EXPECT_TRUE(MacAddress::local(42).is_unicast());
    EXPECT_FALSE(MacAddress::local(42).is_multicast());
}

TEST(MacAddressTest, LocalIdsAreDistinct) {
    EXPECT_NE(MacAddress::local(1), MacAddress::local(2));
    EXPECT_EQ(MacAddress::local(7), MacAddress::local(7));
}

TEST(Ipv4AddressTest, FormatAndParse) {
    const Ipv4Address a{192, 168, 1, 7};
    EXPECT_EQ(a.to_string(), "192.168.1.7");
    const auto parsed = Ipv4Address::parse("192.168.1.7");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), a);
}

TEST(Ipv4AddressTest, RejectsMalformed) {
    EXPECT_FALSE(Ipv4Address::parse("192.168.1").ok());
    EXPECT_FALSE(Ipv4Address::parse("192.168.1.256").ok());
    EXPECT_FALSE(Ipv4Address::parse("192.168.1.7.8").ok());
    EXPECT_FALSE(Ipv4Address::parse("a.b.c.d").ok());
    EXPECT_FALSE(Ipv4Address::parse("1.2.3.4 ").ok());
}

TEST(Ipv4SubnetTest, ContainsAndBroadcast) {
    const Ipv4Subnet net{Ipv4Address{192, 168, 1, 0}, 24};
    EXPECT_TRUE(net.contains(Ipv4Address{192, 168, 1, 200}));
    EXPECT_FALSE(net.contains(Ipv4Address{192, 168, 2, 1}));
    EXPECT_EQ(net.broadcast_address(), (Ipv4Address{192, 168, 1, 255}));
    EXPECT_EQ(net.host(10), (Ipv4Address{192, 168, 1, 10}));
    EXPECT_EQ(net.to_string(), "192.168.1.0/24");
}

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

TEST(ChecksumTest, KnownVector) {
    // Classic example from RFC 1071 materials.
    const std::vector<std::uint8_t> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
    const std::uint16_t sum = internet_checksum(data);
    // Verify the defining property: sum over data + checksum == 0.
    std::vector<std::uint8_t> with = data;
    with.push_back(static_cast<std::uint8_t>(sum >> 8));
    with.push_back(static_cast<std::uint8_t>(sum));
    EXPECT_EQ(internet_checksum(with), 0);
}

TEST(ChecksumTest, OddLengthHandled) {
    const std::vector<std::uint8_t> data = {0xAB, 0xCD, 0xEF};
    const std::uint16_t sum = internet_checksum(data);
    std::vector<std::uint8_t> with = data;
    with.push_back(0);  // pad to even before appending checksum word
    with.push_back(static_cast<std::uint8_t>(sum >> 8));
    with.push_back(static_cast<std::uint8_t>(sum));
    // Padding a zero byte then checksum still sums to zero.
    EXPECT_EQ(internet_checksum(with), 0);
}

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

TEST(EthernetTest, RoundTrip) {
    EthernetFrame f;
    f.dst = MacAddress::local(1);
    f.src = MacAddress::local(2);
    f.ether_type = EtherType::kArp;
    f.payload = {1, 2, 3, 4};
    const Bytes raw = f.serialize();
    EXPECT_EQ(raw.size(), EthernetFrame::kHeaderSize + EthernetFrame::kMinPayload);
    const auto parsed = EthernetFrame::parse(raw);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->dst, f.dst);
    EXPECT_EQ(parsed->src, f.src);
    EXPECT_EQ(parsed->ether_type, EtherType::kArp);
    // Payload includes padding; prefix must match.
    ASSERT_GE(parsed->payload.size(), f.payload.size());
    EXPECT_TRUE(std::equal(f.payload.begin(), f.payload.end(), parsed->payload.begin()));
}

TEST(EthernetTest, LargePayloadNotPadded) {
    EthernetFrame f;
    f.payload.assign(500, 0xAA);
    EXPECT_EQ(f.serialize().size(), EthernetFrame::kHeaderSize + 500);
    EXPECT_EQ(f.wire_size(), EthernetFrame::kHeaderSize + 500);
}

TEST(EthernetTest, RejectsShortAndUnknownType) {
    EXPECT_FALSE(EthernetFrame::parse(Bytes(10, 0)).ok());
    Bytes raw = EthernetFrame{}.serialize();
    raw[12] = 0x12;  // bogus EtherType
    raw[13] = 0x34;
    EXPECT_FALSE(EthernetFrame::parse(raw).ok());
}

// ---------------------------------------------------------------------------
// FrameBuffer / FrameView
// ---------------------------------------------------------------------------

TEST(FrameViewTest, SerializeRoundTripIsFixedPoint) {
    EthernetFrame f;
    f.dst = MacAddress::local(1);
    f.src = MacAddress::local(2);
    f.ether_type = EtherType::kArp;
    f.payload = {1, 2, 3, 4};  // well below the 46-byte minimum

    // The view carries the unpadded origin payload, so serialize → view →
    // serialize is a fixed point even though the wire bytes are padded.
    const FrameView view{FrameBuffer::serialize(f)};
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.bytes().size(), EthernetFrame::kHeaderSize + EthernetFrame::kMinPayload);
    ASSERT_EQ(view.payload().size(), f.payload.size());
    EXPECT_TRUE(std::equal(f.payload.begin(), f.payload.end(), view.payload().begin()));

    const EthernetFrame& round = view.frame();
    EXPECT_EQ(round.payload, f.payload);  // unpadded, unlike EthernetFrame::parse
    EXPECT_EQ(round.serialize(), f.serialize());
}

TEST(FrameViewTest, CaptureKeepsPadding) {
    EthernetFrame f;
    f.ether_type = EtherType::kIpv4;
    f.payload = {9, 9};
    const Bytes raw = f.serialize();

    // A capture cannot know where the payload ends and padding begins; the
    // view exposes the padded payload exactly as a pcap consumer would.
    const FrameView view{FrameBuffer::capture(raw)};
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.payload().size(), EthernetFrame::kMinPayload);
}

TEST(FrameViewTest, CopiesShareIdentityAndBytes) {
    const FrameView a{FrameBuffer::serialize(EthernetFrame{})};
    const FrameBuffer copy = a.buffer();
    const FrameView b{copy};
    EXPECT_EQ(a.buffer().identity(), b.buffer().identity());
    EXPECT_EQ(a.bytes().data(), b.bytes().data());

    const FrameView other{FrameBuffer::capture(Bytes{a.bytes().begin(), a.bytes().end()})};
    EXPECT_NE(a.buffer().identity(), other.buffer().identity());
}

TEST(FrameViewTest, MalformedFramesAreNotOk) {
    const FrameView empty;
    EXPECT_FALSE(empty.ok());
    EXPECT_EQ(empty.arp(), nullptr);
    EXPECT_TRUE(empty.payload().empty());

    const FrameView runt{FrameBuffer::capture(Bytes(10, 0))};
    EXPECT_FALSE(runt.ok());
    EXPECT_EQ(runt.src(), MacAddress{});

    Bytes raw = EthernetFrame{}.serialize();
    raw[12] = 0x12;  // bogus EtherType
    raw[13] = 0x34;
    const FrameView bogus{FrameBuffer::capture(raw)};
    EXPECT_FALSE(bogus.ok());
    EXPECT_EQ(bogus.arp(), nullptr);
    EXPECT_EQ(bogus.ipv4(), nullptr);
}

TEST(FrameViewTest, HeaderParseHappensAtMostOncePerBuffer) {
    EthernetFrame f;
    f.ether_type = EtherType::kArp;
    f.payload = ArpPacket::request(MacAddress::local(7), Ipv4Address{10, 0, 0, 7},
                                   Ipv4Address{10, 0, 0, 8})
                    .serialize();
    const Bytes raw = f.serialize();

    reset_frameview_stats();
    const FrameView view{FrameBuffer::capture(raw)};
    const FrameView sibling{view.buffer()};  // second view over the same buffer
    ASSERT_TRUE(view.ok());   // first touch: the one real parse
    EXPECT_TRUE(sibling.ok());
    EXPECT_TRUE(view.ok());
    auto s = frameview_stats();
    EXPECT_EQ(s.parse_misses, 1u);
    EXPECT_EQ(s.parse_hits, 2u);

    ASSERT_NE(view.arp(), nullptr);
    EXPECT_NE(sibling.arp(), nullptr);
    s = frameview_stats();
    EXPECT_EQ(s.arp_misses, 1u);
    EXPECT_EQ(s.arp_hits, 1u);
}

TEST(FrameViewTest, OriginBuffersNeverPayAHeaderParse) {
    reset_frameview_stats();
    const FrameView view{FrameBuffer::serialize(EthernetFrame{})};
    EXPECT_TRUE(view.ok());
    EXPECT_EQ(view.ether_type(), EtherType::kIpv4);
    const auto s = frameview_stats();
    EXPECT_EQ(s.parse_misses, 0u);  // pre-memoized at serialize()
    EXPECT_EQ(s.parse_hits, 1u);
}

TEST(FrameViewTest, PrimePopulatesPayloadMemo) {
    EthernetFrame f;
    f.ether_type = EtherType::kArp;
    f.payload = ArpPacket::request(MacAddress::local(1), Ipv4Address{10, 0, 0, 1},
                                   Ipv4Address{10, 0, 0, 2})
                    .serialize();
    const FrameView view{FrameBuffer::capture(f.serialize())};

    reset_frameview_stats();
    view.prime();
    auto s = frameview_stats();
    EXPECT_EQ(s.parse_misses, 1u);
    EXPECT_EQ(s.arp_misses, 1u);
    ASSERT_NE(view.arp(), nullptr);  // served from the primed memo
    s = frameview_stats();
    EXPECT_EQ(s.arp_misses, 1u);
    EXPECT_EQ(s.arp_hits, 1u);
    EXPECT_EQ(view.arp()->sender_ip, (Ipv4Address{10, 0, 0, 1}));
}

TEST(FrameViewTest, Ipv4MemoizedOncePerBuffer) {
    Ipv4Packet p;
    p.src = Ipv4Address{10, 0, 0, 1};
    p.dst = Ipv4Address{10, 0, 0, 2};
    p.protocol = IpProto::kUdp;
    EthernetFrame f;
    f.ether_type = EtherType::kIpv4;
    f.payload = p.serialize();

    reset_frameview_stats();
    const FrameView view{FrameBuffer::capture(f.serialize())};
    ASSERT_NE(view.ipv4(), nullptr);
    EXPECT_NE(view.ipv4(), nullptr);
    EXPECT_EQ(view.ipv4()->dst, p.dst);
    const auto s = frameview_stats();
    EXPECT_EQ(s.ipv4_misses, 1u);
    EXPECT_EQ(s.ipv4_hits, 2u);
    EXPECT_EQ(view.arp(), nullptr);  // wrong EtherType: no ARP parse attempted
    EXPECT_EQ(frameview_stats().arp_misses, 0u);
}

// ---------------------------------------------------------------------------
// FrameBuffer::recapture: the one buffer a worker recycles for every frame
// ---------------------------------------------------------------------------

Bytes arp_request_from(std::uint8_t host) {
    EthernetFrame f;
    f.src = MacAddress::local(host);
    f.dst = MacAddress::broadcast();
    f.ether_type = EtherType::kArp;
    f.payload = ArpPacket::request(MacAddress::local(host), Ipv4Address{10, 0, 0, host},
                                   Ipv4Address{10, 0, 0, 254})
                    .serialize();
    return f.serialize();
}

Bytes udp_over_ipv4(std::uint8_t dst_host) {
    Ipv4Packet p;
    p.src = Ipv4Address{10, 0, 0, 1};
    p.dst = Ipv4Address{10, 0, 0, dst_host};
    p.protocol = IpProto::kUdp;
    EthernetFrame f;
    f.ether_type = EtherType::kIpv4;
    f.payload = p.serialize();
    return f.serialize();
}

bool same_bytes(std::span<const std::uint8_t> a, const Bytes& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(FrameRecaptureTest, SoleOwnerReusesItsRep) {
    FrameBuffer buffer;
    buffer.recapture(arp_request_from(1));  // an empty buffer takes a fresh Rep
    const void* rep = buffer.identity();
    ASSERT_NE(rep, nullptr);
    {
        const FrameView view{buffer};
        ASSERT_NE(view.arp(), nullptr);  // fills the memo; the view goes again
    }
    const Bytes next = arp_request_from(2);
    buffer.recapture(next);
    EXPECT_EQ(buffer.identity(), rep);
    EXPECT_TRUE(same_bytes(buffer.bytes(), next));
    const FrameView view{buffer};
    ASSERT_NE(view.arp(), nullptr);
    EXPECT_EQ(view.arp()->sender_ip, (Ipv4Address{10, 0, 0, 2}));  // not the old memo
    EXPECT_EQ(view.src(), MacAddress::local(2));
}

TEST(FrameRecaptureTest, SharedRepIsLeftToTheViewThatHoldsIt) {
    FrameBuffer buffer;
    const Bytes first = arp_request_from(1);
    buffer.recapture(first);
    const FrameView kept{buffer};  // a scheme or a scheduled event kept it
    ASSERT_NE(kept.arp(), nullptr);
    const void* rep = buffer.identity();

    buffer.recapture(arp_request_from(2));
    EXPECT_NE(buffer.identity(), rep);
    EXPECT_EQ(kept.buffer().identity(), rep);
    EXPECT_TRUE(same_bytes(kept.bytes(), first));
    reset_frameview_stats();
    ASSERT_NE(kept.arp(), nullptr);
    EXPECT_EQ(kept.arp()->sender_ip, (Ipv4Address{10, 0, 0, 1}));
    EXPECT_EQ(frameview_stats().arp_misses, 0u);  // its memo survived
    const FrameView fresh{buffer};
    ASSERT_NE(fresh.arp(), nullptr);
    EXPECT_EQ(fresh.arp()->sender_ip, (Ipv4Address{10, 0, 0, 2}));
}

TEST(FrameRecaptureTest, ArpOverIpv4AnswersArpAndNotIpv4) {
    FrameBuffer buffer;
    buffer.recapture(udp_over_ipv4(2));
    {
        const FrameView view{buffer};
        ASSERT_NE(view.ipv4(), nullptr);
        EXPECT_EQ(view.arp(), nullptr);
    }
    const void* rep = buffer.identity();
    buffer.recapture(arp_request_from(3));
    ASSERT_EQ(buffer.identity(), rep);
    {
        const FrameView view{buffer};
        EXPECT_EQ(view.ether_type(), EtherType::kArp);
        ASSERT_NE(view.arp(), nullptr);
        EXPECT_EQ(view.arp()->sender_ip, (Ipv4Address{10, 0, 0, 3}));
        EXPECT_EQ(view.ipv4(), nullptr);
    }
    buffer.recapture(udp_over_ipv4(9));  // and back, to another address
    const FrameView view{buffer};
    EXPECT_EQ(view.arp(), nullptr);
    ASSERT_NE(view.ipv4(), nullptr);
    EXPECT_EQ(view.ipv4()->dst, (Ipv4Address{10, 0, 0, 9}));  // not the first frame's memo
}

TEST(FrameRecaptureTest, CountsOneParseMissPerRecapture) {
    FrameBuffer buffer;
    reset_frameview_stats();
    for (std::uint8_t host = 1; host <= 5; ++host) {
        buffer.recapture(arp_request_from(host));
        const FrameView view{buffer};
        ASSERT_TRUE(view.ok());  // the frame's one header parse
        ASSERT_TRUE(view.ok());  // a memo hit
        ASSERT_NE(view.arp(), nullptr);
    }
    const FrameViewStats s = frameview_stats();
    EXPECT_EQ(s.parse_misses, 5u);
    EXPECT_EQ(s.parse_hits, 5u);
    EXPECT_EQ(s.arp_misses, 5u);
}

// ---------------------------------------------------------------------------
// FrameView tallies on worker threads. No view crosses threads: replay
// workers and serve shard workers each capture their own view of every frame
// they feed, and their hit and miss tallies batch per thread until the
// worker flushes. Threads are spawned through exp::run_indexed (the
// sanctioned concurrency entry point; its join is the happens-before edge),
// and the whole battery runs under the TSan CI job.
// ---------------------------------------------------------------------------

namespace {

Bytes arp_frame_bytes() {
    EthernetFrame f;
    f.ether_type = EtherType::kArp;
    f.payload = ArpPacket::request(MacAddress::local(1), Ipv4Address{10, 0, 0, 1},
                                   Ipv4Address{10, 0, 0, 2})
                    .serialize();
    return f.serialize();
}

}  // namespace

TEST(FrameViewThreadedTest, FlushedWorkerHitsAccountExactly) {
    const Bytes bytes = arp_frame_bytes();
    reset_frameview_stats();
    constexpr std::size_t kThreads = 4;
    constexpr std::uint64_t kIters = 500;
    // Each worker primes a view of its own (one header and one ARP miss),
    // then every iteration pays exactly one parse hit (ok()) and one arp hit
    // (arp()); each worker drains its thread-local batch before exiting, so
    // the process-wide totals must balance to the call count exactly.
    const auto errors = arpsec::exp::run_indexed(kThreads, kThreads, [&bytes](std::size_t) {
        const FrameView view{FrameBuffer::capture(std::span<const std::uint8_t>{bytes})};
        view.prime();
        for (std::uint64_t i = 0; i < kIters; ++i) {
            if (!view.ok()) throw std::runtime_error("primed view not ok");
            if (view.arp() == nullptr) throw std::runtime_error("primed arp memo gone");
        }
        flush_frameview_hits();
    });
    for (const auto& e : errors) EXPECT_EQ(e, "");
    const auto s = frameview_stats();
    EXPECT_EQ(s.parse_hits, kThreads * kIters);
    EXPECT_EQ(s.arp_hits, kThreads * kIters);
    EXPECT_EQ(s.parse_misses, kThreads);
    EXPECT_EQ(s.arp_misses, kThreads);
}

TEST(FrameViewThreadedTest, FlushedWorkerMissesAccountExactly) {
    // The worker shape: each worker captures and parses its own frames, so
    // every capture pays one header miss and one ARP miss on that worker.
    // Misses batch like hits; once flushed they balance exactly.
    const Bytes bytes = arp_frame_bytes();
    reset_frameview_stats();
    constexpr std::size_t kThreads = 4;
    constexpr std::uint64_t kFrames = 300;
    const auto errors = arpsec::exp::run_indexed(kThreads, kThreads, [&bytes](std::size_t) {
        for (std::uint64_t i = 0; i < kFrames; ++i) {
            const FrameView view{FrameBuffer::capture(std::span<const std::uint8_t>{bytes})};
            if (view.arp() == nullptr) throw std::runtime_error("captured arp did not parse");
        }
        flush_frameview_hits();
    });
    for (const auto& e : errors) EXPECT_EQ(e, "");
    const auto s = frameview_stats();
    EXPECT_EQ(s.parse_misses, kThreads * kFrames);
    EXPECT_EQ(s.arp_misses, kThreads * kFrames);
}

TEST(FrameViewThreadedTest, UnflushedWorkerBatchesAreDroppedByDesign) {
    const Bytes bytes = arp_frame_bytes();
    reset_frameview_stats();
    // The documented cost of thread-local batching: a worker that exits
    // without flush_frameview_hits() takes its tally with it. This pins
    // that the accounting really is batch-then-flush (not per-call atomics)
    // — if this test ever sees nonzero hits or misses, the hot path
    // regressed to atomic RMWs.
    const auto errors = arpsec::exp::run_indexed(2, 2, [&bytes](std::size_t) {
        const FrameView view{FrameBuffer::capture(std::span<const std::uint8_t>{bytes})};
        for (int i = 0; i < 100; ++i) {
            static_cast<void>(view.ok());
            static_cast<void>(FrameView{FrameBuffer::capture(view.bytes())}.arp());
        }
        // deliberately no flush
    });
    for (const auto& e : errors) EXPECT_EQ(e, "");
    const auto s = frameview_stats();
    EXPECT_EQ(s.parse_hits, 0u);
    EXPECT_EQ(s.parse_misses, 0u);
    EXPECT_EQ(s.arp_misses, 0u);
}

// ---------------------------------------------------------------------------
// ARP
// ---------------------------------------------------------------------------

TEST(ArpPacketTest, RequestRoundTrip) {
    const ArpPacket req = ArpPacket::request(MacAddress::local(1), Ipv4Address{10, 0, 0, 1},
                                             Ipv4Address{10, 0, 0, 2});
    const auto parsed = ArpPacket::parse(req.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->op, ArpOp::kRequest);
    EXPECT_EQ(parsed->sender_mac, MacAddress::local(1));
    EXPECT_EQ(parsed->sender_ip, (Ipv4Address{10, 0, 0, 1}));
    EXPECT_EQ(parsed->target_ip, (Ipv4Address{10, 0, 0, 2}));
    EXPECT_TRUE(parsed->auth.empty());
}

TEST(ArpPacketTest, ReplyRoundTrip) {
    const ArpPacket rep = ArpPacket::reply(MacAddress::local(2), Ipv4Address{10, 0, 0, 2},
                                           MacAddress::local(1), Ipv4Address{10, 0, 0, 1});
    const auto parsed = ArpPacket::parse(rep.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->op, ArpOp::kReply);
    EXPECT_EQ(parsed->target_mac, MacAddress::local(1));
}

TEST(ArpPacketTest, GratuitousDetection) {
    const ArpPacket g = ArpPacket::gratuitous(MacAddress::local(3), Ipv4Address{10, 0, 0, 3},
                                              /*as_reply=*/true);
    EXPECT_TRUE(g.is_gratuitous());
    const ArpPacket normal = ArpPacket::request(MacAddress::local(1), Ipv4Address{10, 0, 0, 1},
                                                Ipv4Address{10, 0, 0, 2});
    EXPECT_FALSE(normal.is_gratuitous());
}

TEST(ArpPacketTest, AuthTrailerRoundTrip) {
    ArpPacket p = ArpPacket::reply(MacAddress::local(2), Ipv4Address{10, 0, 0, 2},
                                   MacAddress::local(1), Ipv4Address{10, 0, 0, 1});
    p.auth = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
    const auto parsed = ArpPacket::parse(p.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->auth, p.auth);
}

TEST(ArpPacketTest, EthernetPaddingNotMistakenForAuth) {
    // Serialize a classic ARP inside an Ethernet frame (which pads with
    // zeros) and re-parse the padded payload: the trailer must stay empty.
    EthernetFrame f;
    f.ether_type = EtherType::kArp;
    f.payload = ArpPacket::request(MacAddress::local(1), Ipv4Address{10, 0, 0, 1},
                                   Ipv4Address{10, 0, 0, 2})
                    .serialize();
    const auto frame = EthernetFrame::parse(f.serialize());
    ASSERT_TRUE(frame.ok());
    const auto arp = ArpPacket::parse(frame->payload);
    ASSERT_TRUE(arp.ok());
    EXPECT_TRUE(arp->auth.empty());
}

TEST(ArpPacketTest, AuthSurvivesEthernetPadding) {
    EthernetFrame f;
    f.ether_type = EtherType::kArp;
    ArpPacket p = ArpPacket::reply(MacAddress::local(2), Ipv4Address{10, 0, 0, 2},
                                   MacAddress::local(1), Ipv4Address{10, 0, 0, 1});
    p.auth = {1, 2, 3};
    f.payload = p.serialize();
    const auto frame = EthernetFrame::parse(f.serialize());
    ASSERT_TRUE(frame.ok());
    const auto arp = ArpPacket::parse(frame->payload);
    ASSERT_TRUE(arp.ok());
    EXPECT_EQ(arp->auth, p.auth);
}

TEST(ArpPacketTest, RejectsTruncatedAndBogus) {
    EXPECT_FALSE(ArpPacket::parse(Bytes(10, 0)).ok());
    ArpPacket p = ArpPacket::request(MacAddress::local(1), Ipv4Address{10, 0, 0, 1},
                                     Ipv4Address{10, 0, 0, 2});
    Bytes raw = p.serialize();
    raw[6] = 0;  // opcode hi
    raw[7] = 9;  // unknown opcode
    EXPECT_FALSE(ArpPacket::parse(raw).ok());
}

// ---------------------------------------------------------------------------
// IPv4 / UDP
// ---------------------------------------------------------------------------

TEST(Ipv4PacketTest, RoundTripAndChecksum) {
    Ipv4Packet p;
    p.src = Ipv4Address{10, 0, 0, 1};
    p.dst = Ipv4Address{10, 0, 0, 2};
    p.identification = 77;
    p.ttl = 31;
    p.payload = {9, 8, 7};
    const Bytes raw = p.serialize();
    const auto parsed = Ipv4Packet::parse(raw);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->src, p.src);
    EXPECT_EQ(parsed->dst, p.dst);
    EXPECT_EQ(parsed->identification, 77);
    EXPECT_EQ(parsed->ttl, 31);
    EXPECT_EQ(parsed->payload, p.payload);
}

TEST(Ipv4PacketTest, DetectsHeaderCorruption) {
    Ipv4Packet p;
    p.src = Ipv4Address{10, 0, 0, 1};
    p.dst = Ipv4Address{10, 0, 0, 2};
    Bytes raw = p.serialize();
    raw[15] ^= 0xFF;  // flip a destination byte
    EXPECT_FALSE(Ipv4Packet::parse(raw).ok());
}

TEST(Ipv4PacketTest, ToleratesTrailingPadding) {
    Ipv4Packet p;
    p.src = Ipv4Address{10, 0, 0, 1};
    p.dst = Ipv4Address{10, 0, 0, 2};
    p.payload = {1, 2};
    Bytes raw = p.serialize();
    raw.insert(raw.end(), 20, 0);  // Ethernet padding
    const auto parsed = Ipv4Packet::parse(raw);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->payload, p.payload);
}

TEST(UdpDatagramTest, RoundTrip) {
    UdpDatagram d;
    d.src_port = 68;
    d.dst_port = 67;
    d.payload = {5, 4, 3, 2, 1};
    const auto parsed = UdpDatagram::parse(d.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->src_port, 68);
    EXPECT_EQ(parsed->dst_port, 67);
    EXPECT_EQ(parsed->payload, d.payload);
}

TEST(UdpDatagramTest, DetectsPayloadCorruption) {
    UdpDatagram d;
    d.payload = {5, 4, 3};
    Bytes raw = d.serialize();
    raw.back() ^= 0x01;
    EXPECT_FALSE(UdpDatagram::parse(raw).ok());
}

TEST(UdpDatagramTest, ToleratesTrailingPadding) {
    UdpDatagram d;
    d.src_port = 1;
    d.dst_port = 2;
    d.payload = {42};
    Bytes raw = d.serialize();
    raw.insert(raw.end(), 30, 0);
    const auto parsed = UdpDatagram::parse(raw);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->payload, d.payload);
}

// ---------------------------------------------------------------------------
// DHCP
// ---------------------------------------------------------------------------

TEST(DhcpMessageTest, DiscoverRoundTrip) {
    DhcpMessage m;
    m.op = 1;
    m.xid = 0xDEADBEEF;
    m.flags = DhcpMessage::kFlagBroadcast;
    m.chaddr = MacAddress::local(5);
    m.message_type = DhcpMessageType::kDiscover;
    const auto parsed = DhcpMessage::parse(m.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->xid, 0xDEADBEEF);
    EXPECT_EQ(parsed->chaddr, MacAddress::local(5));
    EXPECT_EQ(parsed->message_type, DhcpMessageType::kDiscover);
    EXPECT_FALSE(parsed->requested_ip.has_value());
}

TEST(DhcpMessageTest, AckWithAllOptionsRoundTrip) {
    DhcpMessage m;
    m.op = 2;
    m.xid = 7;
    m.yiaddr = Ipv4Address{192, 168, 1, 100};
    m.chaddr = MacAddress::local(5);
    m.message_type = DhcpMessageType::kAck;
    m.lease_seconds = 3600;
    m.server_id = Ipv4Address{192, 168, 1, 1};
    m.subnet_mask = Ipv4Address{255, 255, 255, 0};
    m.router = Ipv4Address{192, 168, 1, 1};
    const auto parsed = DhcpMessage::parse(m.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->yiaddr, m.yiaddr);
    EXPECT_EQ(parsed->lease_seconds, 3600u);
    EXPECT_EQ(parsed->server_id, m.server_id);
    EXPECT_EQ(parsed->subnet_mask, m.subnet_mask);
    EXPECT_EQ(parsed->router, m.router);
    EXPECT_TRUE(parsed->is_reply());
}

TEST(DhcpMessageTest, RejectsMissingCookieOrType) {
    DhcpMessage m;
    m.message_type = DhcpMessageType::kDiscover;
    Bytes raw = m.serialize();
    raw[236] ^= 0xFF;  // corrupt magic cookie
    EXPECT_FALSE(DhcpMessage::parse(raw).ok());
    EXPECT_FALSE(DhcpMessage::parse(Bytes(50, 0)).ok());
}

// ---------------------------------------------------------------------------
// Fuzz-flavoured property tests
// ---------------------------------------------------------------------------

class CodecFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzzTest, RandomBuffersNeverCrashParsers) {
    common::Rng rng(GetParam());
    for (int i = 0; i < 500; ++i) {
        const std::size_t len = rng.next_below(300);
        Bytes buf(len);
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
        // None of these may crash or throw; failure results are fine.
        (void)EthernetFrame::parse(buf);
        (void)ArpPacket::parse(buf);
        (void)Ipv4Packet::parse(buf);
        (void)UdpDatagram::parse(buf);
        (void)DhcpMessage::parse(buf);
        (void)TcpSegment::parse(buf);
    }
}

TEST_P(CodecFuzzTest, RandomArpPacketsRoundTrip) {
    common::Rng rng(GetParam() ^ 0x1234);
    for (int i = 0; i < 200; ++i) {
        ArpPacket p;
        p.op = rng.chance(0.5) ? ArpOp::kRequest : ArpOp::kReply;
        p.sender_mac = MacAddress::local(rng.next_u64() & 0xFFFFFFFFFFULL);
        p.target_mac = MacAddress::local(rng.next_u64() & 0xFFFFFFFFFFULL);
        p.sender_ip = Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())};
        p.target_ip = Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())};
        if (rng.chance(0.5)) {
            p.auth.resize(rng.next_below(64) + 1);
            for (auto& b : p.auth) b = static_cast<std::uint8_t>(rng.next_u64());
        }
        const auto parsed = ArpPacket::parse(p.serialize());
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed->op, p.op);
        EXPECT_EQ(parsed->sender_mac, p.sender_mac);
        EXPECT_EQ(parsed->sender_ip, p.sender_ip);
        EXPECT_EQ(parsed->target_mac, p.target_mac);
        EXPECT_EQ(parsed->target_ip, p.target_ip);
        EXPECT_EQ(parsed->auth, p.auth);
    }
}

TEST_P(CodecFuzzTest, RandomUdpOverIpv4RoundTrips) {
    common::Rng rng(GetParam() ^ 0x9999);
    for (int i = 0; i < 200; ++i) {
        UdpDatagram udp;
        udp.src_port = static_cast<std::uint16_t>(rng.next_u64());
        udp.dst_port = static_cast<std::uint16_t>(rng.next_u64());
        udp.payload.resize(rng.next_below(200));
        for (auto& b : udp.payload) b = static_cast<std::uint8_t>(rng.next_u64());

        Ipv4Packet ip;
        ip.src = Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())};
        ip.dst = Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())};
        ip.payload = udp.serialize();

        const auto pip = Ipv4Packet::parse(ip.serialize());
        ASSERT_TRUE(pip.ok());
        const auto pudp = UdpDatagram::parse(pip->payload);
        ASSERT_TRUE(pudp.ok());
        EXPECT_EQ(pudp->payload, udp.payload);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest, ::testing::Values(1, 2, 3, 42, 1337));

// ---------------------------------------------------------------------------
// pcap
// ---------------------------------------------------------------------------

TEST(PcapWriterTest, WritesGlobalHeaderAndRecords) {
    const std::string path = ::testing::TempDir() + "/arpsec_test.pcap";
    {
        auto w = PcapWriter::open(path).value();
        const Bytes frame(64, 0xAB);
        w.write(common::SimTime{1'500'000'000}, frame);
        w.write(common::SimTime{2'000'000'000}, frame);
        EXPECT_EQ(w.frames_written(), 2u);
    }
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::uint8_t header[24];
    ASSERT_EQ(std::fread(header, 1, sizeof(header), f), sizeof(header));
    // Little-endian classic pcap magic.
    EXPECT_EQ(header[0], 0xd4);
    EXPECT_EQ(header[1], 0xc3);
    EXPECT_EQ(header[2], 0xb2);
    EXPECT_EQ(header[3], 0xa1);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(size, 24 + 2 * (16 + 64));
}

TEST(PcapWriterTest, UncreatablePathFailsAtOpen) {
    const std::string path = ::testing::TempDir() + "/arpsec-no-such-dir/x.pcap";
    const auto w = PcapWriter::open(path);
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.error().rfind("cannot write '" + path + "': ", 0), 0u) << w.error();
}

TEST(PcapWriterTest, FullDiskFailsAtCloseNamingThePath) {
    // /dev/full opens and buffers, then every flush fails with ENOSPC.
    auto w = PcapWriter::open("/dev/full");
    ASSERT_TRUE(w.ok()) << w.error();
    w->write(common::SimTime{1'000'000'000}, Bytes(64, 0xAB));
    const auto closed = w->close();
    ASSERT_FALSE(closed.ok());
    EXPECT_EQ(closed.error(), "cannot write '/dev/full': No space left on device");
}

TEST(PcapWriterTest, RoundTripParsesBackToTheOriginalFrames) {
    // Write real ARP-over-Ethernet frames, then read the file back with a
    // minimal pcap parser and re-decode each record through the normal
    // EthernetFrame/ArpPacket parsers: what tcpdump would see must be
    // exactly what the simulator sent.
    const MacAddress attacker = MacAddress::local(0x666);
    const MacAddress victim = MacAddress::local(10);
    const Ipv4Address gw_ip{192, 168, 1, 1};
    const Ipv4Address victim_ip{192, 168, 1, 10};

    std::vector<EthernetFrame> sent;
    {
        EthernetFrame f;
        f.dst = MacAddress::broadcast();
        f.src = victim;
        f.ether_type = EtherType::kArp;
        f.payload = ArpPacket::request(victim, victim_ip, gw_ip).serialize();
        sent.push_back(f);
    }
    {
        EthernetFrame f;
        f.dst = victim;
        f.src = attacker;
        f.ether_type = EtherType::kArp;
        f.payload = ArpPacket::reply(attacker, gw_ip, victim, victim_ip).serialize();
        sent.push_back(f);
    }

    const std::string path = ::testing::TempDir() + "/arpsec_roundtrip.pcap";
    const std::int64_t base_ns = 1'234'567'000;
    {
        auto w = PcapWriter::open(path).value();
        for (std::size_t i = 0; i < sent.size(); ++i) {
            w.write(common::SimTime{base_ns + static_cast<std::int64_t>(i) * 1'000'000},
                    sent[i].serialize());
        }
    }

    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    const auto rd_u32 = [&] {
        std::uint8_t b[4] = {};
        EXPECT_EQ(std::fread(b, 1, 4, f), 4u);
        return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
               (static_cast<std::uint32_t>(b[2]) << 16) |
               (static_cast<std::uint32_t>(b[3]) << 24);
    };
    EXPECT_EQ(rd_u32(), 0xa1b2c3d4u);             // magic, little-endian file
    EXPECT_EQ(rd_u32(), (4u << 16) | 2u);         // version 2.4 (minor|major pair)
    EXPECT_EQ(rd_u32(), 0u);                      // thiszone
    EXPECT_EQ(rd_u32(), 0u);                      // sigfigs
    EXPECT_EQ(rd_u32(), 65535u);                  // snaplen
    EXPECT_EQ(rd_u32(), 1u);                      // LINKTYPE_ETHERNET

    for (std::size_t i = 0; i < sent.size(); ++i) {
        const std::int64_t ns = base_ns + static_cast<std::int64_t>(i) * 1'000'000;
        EXPECT_EQ(rd_u32(), static_cast<std::uint32_t>(ns / 1'000'000'000));
        EXPECT_EQ(rd_u32(), static_cast<std::uint32_t>((ns % 1'000'000'000) / 1'000));
        const std::uint32_t incl = rd_u32();
        const std::uint32_t orig = rd_u32();
        EXPECT_EQ(incl, orig);
        Bytes raw(incl);
        ASSERT_EQ(std::fread(raw.data(), 1, raw.size(), f), raw.size());

        const auto eth = EthernetFrame::parse(raw);
        ASSERT_TRUE(eth.ok()) << "record " << i;
        EXPECT_EQ(eth->dst, sent[i].dst);
        EXPECT_EQ(eth->src, sent[i].src);
        EXPECT_EQ(eth->ether_type, EtherType::kArp);
        const auto arp = ArpPacket::parse(eth->payload);
        ASSERT_TRUE(arp.ok()) << "record " << i;
        const auto expected = ArpPacket::parse(sent[i].payload);
        ASSERT_TRUE(expected.ok());
        EXPECT_EQ(arp->op, expected->op);
        EXPECT_EQ(arp->sender_ip, expected->sender_ip);
        EXPECT_EQ(arp->sender_mac, expected->sender_mac);
        EXPECT_EQ(arp->target_ip, expected->target_ip);
        EXPECT_EQ(arp->target_mac, expected->target_mac);
    }
    // No trailing bytes: the file is exactly the header plus the records.
    std::uint8_t extra = 0;
    EXPECT_EQ(std::fread(&extra, 1, 1, f), 0u);
    std::fclose(f);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// PcapReader
// ---------------------------------------------------------------------------

namespace {

Bytes read_all(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    Bytes out;
    std::uint8_t buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.insert(out.end(), buf, buf + n);
    std::fclose(f);
    return out;
}

void write_all(const std::string& path, std::span<const std::uint8_t> bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!bytes.empty()) {
        EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    std::fclose(f);
}

/// A hand-built big-endian capture: global header + one 4-byte record.
Bytes big_endian_fixture(bool nanosecond) {
    const auto be32 = [](Bytes& out, std::uint32_t v) {
        out.push_back(static_cast<std::uint8_t>(v >> 24));
        out.push_back(static_cast<std::uint8_t>(v >> 16));
        out.push_back(static_cast<std::uint8_t>(v >> 8));
        out.push_back(static_cast<std::uint8_t>(v));
    };
    Bytes data;
    be32(data, nanosecond ? 0xa1b23c4du : 0xa1b2c3d4u);
    be32(data, 0x00020004u);  // version 2.4
    be32(data, 0);            // thiszone
    be32(data, 0);            // sigfigs
    be32(data, 65535);        // snaplen
    be32(data, 1);            // LINKTYPE_ETHERNET
    be32(data, 7);            // ts_sec
    be32(data, nanosecond ? 500u : 250u);  // ts_frac
    be32(data, 4);            // incl_len
    be32(data, 4);            // orig_len
    data.insert(data.end(), {0xDE, 0xAD, 0xBE, 0xEF});
    return data;
}

}  // namespace

TEST(PcapReaderTest, WriterReaderByteExactRoundTrip) {
    const std::string path = ::testing::TempDir() + "/arpsec_reader_roundtrip.pcap";
    common::Rng rng{99};
    std::vector<Bytes> frames;
    std::vector<std::int64_t> stamps;
    {
        auto w = PcapWriter::open(path).value();
        for (int i = 0; i < 20; ++i) {
            Bytes frame(14 + rng.next_below(120));
            for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next_u64());
            const std::int64_t ns =
                1'000'000'000 + static_cast<std::int64_t>(i) * 250'000;  // µs-aligned
            w.write(common::SimTime{ns}, frame);
            frames.push_back(std::move(frame));
            stamps.push_back(ns);
        }
    }

    const auto trace = PcapReader::read_file(path);
    ASSERT_TRUE(trace.ok()) << trace.error();
    EXPECT_EQ(trace->link_type, 1u);
    EXPECT_EQ(trace->snaplen, 65535u);
    EXPECT_FALSE(trace->nanosecond);
    EXPECT_FALSE(trace->big_endian);
    ASSERT_EQ(trace->records.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
        EXPECT_EQ(trace->records[i].bytes, frames[i]) << "record " << i;
        EXPECT_EQ(trace->records[i].at.nanos(), stamps[i]) << "record " << i;
        EXPECT_EQ(trace->records[i].orig_len, frames[i].size()) << "record " << i;
    }

    // Re-writing the parsed records reproduces the file byte for byte.
    const std::string path2 = ::testing::TempDir() + "/arpsec_reader_rewrite.pcap";
    {
        auto w = PcapWriter::open(path2).value();
        for (const auto& rec : trace->records) w.write(rec.at, rec.bytes);
    }
    EXPECT_EQ(read_all(path), read_all(path2));
    std::remove(path.c_str());
    std::remove(path2.c_str());
}

TEST(PcapReaderTest, ParsesBigEndianCaptures) {
    const auto trace = PcapReader::parse(big_endian_fixture(/*nanosecond=*/false));
    ASSERT_TRUE(trace.ok()) << trace.error();
    EXPECT_TRUE(trace->big_endian);
    EXPECT_FALSE(trace->nanosecond);
    EXPECT_EQ(trace->link_type, 1u);
    ASSERT_EQ(trace->records.size(), 1u);
    EXPECT_EQ(trace->records[0].at.nanos(), 7'000'000'000 + 250 * 1'000);
    EXPECT_EQ(trace->records[0].bytes, (Bytes{0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(PcapReaderTest, ParsesNanosecondMagic) {
    const auto trace = PcapReader::parse(big_endian_fixture(/*nanosecond=*/true));
    ASSERT_TRUE(trace.ok()) << trace.error();
    EXPECT_TRUE(trace->big_endian);
    EXPECT_TRUE(trace->nanosecond);
    ASSERT_EQ(trace->records.size(), 1u);
    EXPECT_EQ(trace->records[0].at.nanos(), 7'000'000'500);
}

TEST(PcapReaderTest, WrongMagicIsATypedError) {
    Bytes data(24, 0x00);
    data[0] = 0x13;
    data[1] = 0x37;
    const auto trace = PcapReader::parse(data);
    ASSERT_FALSE(trace.ok());
    EXPECT_NE(trace.error().find("magic"), std::string::npos) << trace.error();
}

TEST(PcapReaderTest, ShortGlobalHeaderIsATypedError) {
    // An empty file included: the in-memory parse, the file read and the
    // decoder behind both report the same typed error.
    const std::string path = ::testing::TempDir() + "/arpsec_short.pcap";
    for (const Bytes& data : {Bytes{}, Bytes{0xd4, 0xc3, 0xb2, 0xa1}}) {
        const std::string want = "pcap: file too short for the 24-byte global header (" +
                                 std::to_string(data.size()) + " bytes)";
        const auto parsed = PcapReader::parse(data);
        ASSERT_FALSE(parsed.ok());
        EXPECT_EQ(parsed.error(), want);
        write_all(path, data);
        const auto read = PcapReader::read_file(path);
        ASSERT_FALSE(read.ok());
        EXPECT_EQ(read.error(), want);
        PcapStreamReader stream;
        stream.feed(data);
        stream.finish();
        PcapRecord rec;
        EXPECT_EQ(stream.poll(rec), PcapStreamReader::Status::kError);
        EXPECT_EQ(stream.last_error(), want);
    }
    std::remove(path.c_str());
}

TEST(PcapReaderTest, TruncatedFinalRecordIsATypedError) {
    // Two records, then 2500: a file of three 64 KiB read chunks, so the
    // file read resumes across chunk boundaries and every clip lands in its
    // final chunk. The file read and the in-memory parse must report the
    // same error at the same absolute offset.
    const std::string path = ::testing::TempDir() + "/arpsec_truncated.pcap";
    for (const std::size_t frames : {std::size_t{2}, std::size_t{2500}}) {
        SCOPED_TRACE(std::to_string(frames) + " records");
        {
            auto w = PcapWriter::open(path).value();
            for (std::size_t i = 0; i < frames; ++i) {
                w.write(common::SimTime{static_cast<std::int64_t>(i + 1) * 1'000'000'000},
                        Bytes(60, static_cast<std::uint8_t>(i)));
            }
        }
        const Bytes data = read_all(path);
        if (frames > 2) {
            EXPECT_GT(data.size(), 2 * PcapReader::kChunkSize);
        }
        const std::string last = "record #" + std::to_string(frames - 1);
        const std::size_t header_at = data.size() - (PcapReader::kRecordHeaderSize + 60);
        const std::size_t body_at = header_at + PcapReader::kRecordHeaderSize;
        struct Clip {
            std::size_t keep;
            std::string error;  // empty: the prefix must parse
        };
        const std::vector<Clip> clips = {
            // Mid-body of the final record...
            {data.size() - 30, "pcap: truncated record body in " + last +
                                   " (want 60 bytes, have 30) at offset " +
                                   std::to_string(body_at)},
            // ...inside its header instead...
            {header_at + 6, "pcap: truncated record header in " + last + " at offset " +
                                std::to_string(header_at)},
            // ...and exactly before it: truncation only kills the whole file
            // when it happens mid-record.
            {header_at, ""},
        };
        for (const Clip& clip : clips) {
            const std::span<const std::uint8_t> clipped(data.data(), clip.keep);
            write_all(path, clipped);
            const auto from_file = PcapReader::read_file(path);
            const auto from_memory = PcapReader::parse(clipped);
            if (!clip.error.empty()) {
                ASSERT_FALSE(from_file.ok());
                ASSERT_FALSE(from_memory.ok());
                EXPECT_EQ(from_file.error(), clip.error);
                EXPECT_EQ(from_memory.error(), clip.error);
                continue;
            }
            ASSERT_TRUE(from_file.ok()) << from_file.error();
            ASSERT_TRUE(from_memory.ok()) << from_memory.error();
            ASSERT_EQ(from_file->records.size(), frames - 1);
            ASSERT_EQ(from_memory->records.size(), frames - 1);
            for (std::size_t i = 0; i + 1 < frames; ++i) {
                const Bytes want(60, static_cast<std::uint8_t>(i));
                EXPECT_EQ(from_file->records[i].bytes, want) << "record " << i;
                EXPECT_EQ(from_memory->records[i].bytes, want) << "record " << i;
            }
        }
    }
    std::remove(path.c_str());
}

TEST(PcapReaderTest, MissingFileIsATypedError) {
    const auto trace = PcapReader::read_file("/nonexistent/arpsec.pcap");
    ASSERT_FALSE(trace.ok());
    EXPECT_NE(trace.error().find("cannot open"), std::string::npos) << trace.error();
}

TEST(PcapReaderTest, UnreadablePathIsAnIoError) {
    // A directory opens but cannot be read: an I/O error, not an empty capture.
    const std::string dir = ::testing::TempDir();
    const auto trace = PcapReader::read_file(dir);
    ASSERT_FALSE(trace.ok());
    EXPECT_EQ(trace.error(), "pcap: cannot read '" + dir + "'");
}

// ---------------------------------------------------------------------------
// PcapStreamReader
// ---------------------------------------------------------------------------

namespace {

/// A two-record little-endian capture built by the repo's own writer.
Bytes two_record_capture() {
    const std::string path = ::testing::TempDir() + "/arpsec_stream_fixture.pcap";
    {
        auto w = PcapWriter::open(path).value();
        w.write(common::SimTime{1'000'000'000}, Bytes(60, 0x11));
        w.write(common::SimTime{2'000'000'000}, Bytes(42, 0x22));
    }
    Bytes data = read_all(path);
    std::remove(path.c_str());
    return data;
}

}  // namespace

TEST(PcapStreamReaderTest, SingleFeedMatchesBatchParser) {
    const Bytes data = two_record_capture();
    const auto batch = PcapReader::parse(data);
    ASSERT_TRUE(batch.ok()) << batch.error();

    PcapStreamReader r;
    r.feed(data);
    r.finish();
    std::vector<PcapRecord> records;
    PcapRecord rec;
    while (r.poll(rec) == PcapStreamReader::Status::kRecord) records.push_back(rec);
    EXPECT_EQ(r.poll(rec), PcapStreamReader::Status::kEnd);

    EXPECT_TRUE(r.header_ready());
    EXPECT_EQ(r.link_type(), batch->link_type);
    EXPECT_EQ(r.snaplen(), batch->snaplen);
    ASSERT_EQ(records.size(), batch->records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].bytes, batch->records[i].bytes) << "record " << i;
        EXPECT_EQ(records[i].at.nanos(), batch->records[i].at.nanos()) << "record " << i;
        EXPECT_EQ(records[i].orig_len, batch->records[i].orig_len) << "record " << i;
    }
}

TEST(PcapStreamReaderTest, ByteAtATimeFeedResumesMidRecord) {
    const Bytes data = two_record_capture();
    // The chunk boundary lands inside the global header, inside each record
    // header, and inside each body — every one must report kNeedMore, then
    // resume cleanly when the next byte arrives.
    PcapStreamReader r;
    std::vector<PcapRecord> records;
    for (const std::uint8_t b : data) {
        r.feed(std::span<const std::uint8_t>(&b, 1));
        PcapRecord rec;
        for (;;) {
            const auto s = r.poll(rec);
            if (s == PcapStreamReader::Status::kRecord) {
                records.push_back(rec);
                continue;
            }
            ASSERT_EQ(s, PcapStreamReader::Status::kNeedMore) << r.last_error();
            break;
        }
    }
    r.finish();
    PcapRecord rec;
    EXPECT_EQ(r.poll(rec), PcapStreamReader::Status::kEnd);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].bytes, Bytes(60, 0x11));
    EXPECT_EQ(records[1].bytes, Bytes(42, 0x22));
    EXPECT_EQ(r.records(), 2u);
    EXPECT_EQ(r.bytes_fed(), data.size());
    EXPECT_EQ(r.buffered(), 0u);
}

TEST(PcapStreamReaderTest, TruncationIsOnlyAnErrorAfterFinish) {
    const Bytes data = two_record_capture();
    // Clip mid-body of the final record: an open stream just waits...
    Bytes clipped{data.begin(), data.end() - 10};
    PcapStreamReader r;
    r.feed(clipped);
    PcapRecord rec;
    ASSERT_EQ(r.poll(rec), PcapStreamReader::Status::kRecord);
    EXPECT_EQ(r.poll(rec), PcapStreamReader::Status::kNeedMore);
    // ...and the record completes when the tail finally arrives.
    r.feed(std::span<const std::uint8_t>(data.data() + data.size() - 10, 10));
    ASSERT_EQ(r.poll(rec), PcapStreamReader::Status::kRecord);
    EXPECT_EQ(rec.bytes, Bytes(42, 0x22));

    // The same clip with finish() declared is a typed truncation error.
    PcapStreamReader r2;
    r2.feed(clipped);
    r2.finish();
    ASSERT_EQ(r2.poll(rec), PcapStreamReader::Status::kRecord);
    EXPECT_EQ(r2.poll(rec), PcapStreamReader::Status::kError);
    EXPECT_NE(r2.last_error().find("truncated record body"), std::string::npos)
        << r2.last_error();
    EXPECT_NE(r2.last_error().find("#1"), std::string::npos) << r2.last_error();
    // Errors are sticky.
    EXPECT_EQ(r2.poll(rec), PcapStreamReader::Status::kError);
}

TEST(PcapStreamReaderTest, BadMagicAndBadLengthAreStickyErrors) {
    PcapStreamReader r;
    Bytes junk(24, 0x00);
    junk[0] = 0x13;
    r.feed(junk);
    PcapRecord rec;
    EXPECT_EQ(r.poll(rec), PcapStreamReader::Status::kError);
    EXPECT_NE(r.last_error().find("magic"), std::string::npos) << r.last_error();

    // An implausible captured length poisons the stream at the same bound
    // the batch parser uses.
    Bytes data = two_record_capture();
    data[24 + 8] = 0xff;  // incl_len low byte (LE) of record #0
    data[24 + 9] = 0xff;
    data[24 + 10] = 0xff;
    PcapStreamReader r2;
    r2.feed(data);
    EXPECT_EQ(r2.poll(rec), PcapStreamReader::Status::kError);
    EXPECT_NE(r2.last_error().find("implausible captured length"), std::string::npos)
        << r2.last_error();
}

TEST(PcapStreamReaderTest, ParsesBigEndianNanosecondStream) {
    const Bytes data = big_endian_fixture(/*nanosecond=*/true);
    PcapStreamReader r;
    // Split inside the record header to exercise the swapped decode path
    // across a resume boundary.
    r.feed(std::span<const std::uint8_t>(data.data(), 30));
    PcapRecord rec;
    EXPECT_EQ(r.poll(rec), PcapStreamReader::Status::kNeedMore);
    EXPECT_TRUE(r.header_ready());
    EXPECT_TRUE(r.big_endian());
    EXPECT_TRUE(r.nanosecond());
    r.feed(std::span<const std::uint8_t>(data.data() + 30, data.size() - 30));
    ASSERT_EQ(r.poll(rec), PcapStreamReader::Status::kRecord);
    EXPECT_EQ(rec.at.nanos(), 7'000'000'500);
    EXPECT_EQ(rec.bytes, (Bytes{0xDE, 0xAD, 0xBE, 0xEF}));
}

// ---------------------------------------------------------------------------
// arpsec.stream.v1 codec
// ---------------------------------------------------------------------------

TEST(StreamCodecTest, RoundTripsEveryRecordType) {
    Bytes buf;
    StreamHello hello;
    hello.seed = 42;
    encode_hello(buf, hello);
    std::vector<StreamHostEntry> dir;
    dir.push_back({"alice", Ipv4Address{192, 168, 1, 10}, MacAddress::local(0x0a)});
    dir.push_back({"bob", Ipv4Address{192, 168, 1, 11}, MacAddress::local(0x0b)});
    encode_directory(buf, dir);
    const Bytes frame_bytes(64, 0xab);
    encode_frame(buf, 123'456'789u, frame_bytes);
    encode_alert(buf, "{\"kind\":\"spoof\"}");
    encode_summary(buf, "{\"frames\":1}");
    encode_end(buf);

    StreamDecoder d;
    d.feed(buf);
    StreamRecord rec;
    ASSERT_EQ(d.poll(rec), StreamDecoder::Status::kRecord);
    ASSERT_EQ(rec.type, StreamRecordType::kHello);
    EXPECT_EQ(rec.hello.version, 1u);
    EXPECT_EQ(rec.hello.seed, 42u);

    ASSERT_EQ(d.poll(rec), StreamDecoder::Status::kRecord);
    ASSERT_EQ(rec.type, StreamRecordType::kDirectory);
    ASSERT_EQ(rec.directory.size(), 2u);
    EXPECT_EQ(rec.directory[0].name, "alice");
    EXPECT_EQ(rec.directory[0].ip, (Ipv4Address{192, 168, 1, 10}));
    EXPECT_EQ(rec.directory[1].mac, MacAddress::local(0x0b));

    ASSERT_EQ(d.poll(rec), StreamDecoder::Status::kRecord);
    ASSERT_EQ(rec.type, StreamRecordType::kFrame);
    EXPECT_EQ(rec.frame.at_nanos, 123'456'789u);
    EXPECT_EQ(rec.frame.bytes, frame_bytes);

    ASSERT_EQ(d.poll(rec), StreamDecoder::Status::kRecord);
    ASSERT_EQ(rec.type, StreamRecordType::kAlert);
    EXPECT_EQ(rec.text, "{\"kind\":\"spoof\"}");

    ASSERT_EQ(d.poll(rec), StreamDecoder::Status::kRecord);
    ASSERT_EQ(rec.type, StreamRecordType::kSummary);
    EXPECT_EQ(rec.text, "{\"frames\":1}");

    ASSERT_EQ(d.poll(rec), StreamDecoder::Status::kRecord);
    EXPECT_EQ(rec.type, StreamRecordType::kEnd);
    EXPECT_EQ(d.poll(rec), StreamDecoder::Status::kNeedMore);
    EXPECT_EQ(d.records(), 6u);
    EXPECT_EQ(d.bad_records(), 0u);
}

TEST(StreamCodecTest, EveryEncoderAppendsGoldenBytes) {
    // Each encoder appends after what `out` already holds (the 0xEE byte).
    const auto encoded = [](const auto& encode) {
        Bytes out{0xEE};
        encode(out);
        return out;
    };
    StreamHello hello;
    hello.seed = 0x0102030405060708ULL;
    EXPECT_EQ(encoded([&](Bytes& o) { encode_hello(o, hello); }),
              (Bytes{0xEE, 0, 0, 0, 17, 0x01, 0x41, 0x53, 0x56, 0x31, 0, 0, 0, 1,
                     1, 2, 3, 4, 5, 6, 7, 8}));

    const std::vector<StreamHostEntry> dir = {
        {"ab", Ipv4Address{10, 0, 0, 1}, MacAddress{0x02, 0, 0, 0, 0, 0x0a}}};
    EXPECT_EQ(encoded([&](Bytes& o) { encode_directory(o, dir); }),
              (Bytes{0xEE, 0, 0, 0, 19, 0x02, 0, 0, 0, 1, 10, 0, 0, 1,
                     0x02, 0, 0, 0, 0, 0x0a, 0, 2, 'a', 'b'}));
    EXPECT_EQ(encoded([&](Bytes& o) { encode_directory(o, {}); }),
              (Bytes{0xEE, 0, 0, 0, 5, 0x02, 0, 0, 0, 0}));

    const Bytes frame{0xAA, 0xBB, 0xCC};
    EXPECT_EQ(encoded([&](Bytes& o) { encode_frame(o, 0x1122334455667788ULL, frame); }),
              (Bytes{0xEE, 0, 0, 0, 16, 0x03, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                     0x88, 0, 0, 0, 3, 0xAA, 0xBB, 0xCC}));
    EXPECT_EQ(encoded([](Bytes& o) { encode_end(o); }), (Bytes{0xEE, 0, 0, 0, 1, 0x04}));
    EXPECT_EQ(encoded([](Bytes& o) { encode_alert(o, "{}"); }),
              (Bytes{0xEE, 0, 0, 0, 3, 0x10, '{', '}'}));
    EXPECT_EQ(encoded([](Bytes& o) { encode_summary(o, "x"); }),
              (Bytes{0xEE, 0, 0, 0, 2, 0x11, 'x'}));
}

void expect_same_record(const StreamRecord& got, const StreamRecord& want) {
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.hello.version, want.hello.version);
    EXPECT_EQ(got.hello.seed, want.hello.seed);
    ASSERT_EQ(got.directory.size(), want.directory.size());
    for (std::size_t i = 0; i < got.directory.size(); ++i) {
        EXPECT_EQ(got.directory[i].name, want.directory[i].name);
        EXPECT_EQ(got.directory[i].ip, want.directory[i].ip);
        EXPECT_EQ(got.directory[i].mac, want.directory[i].mac);
    }
    EXPECT_EQ(got.frame.at_nanos, want.frame.at_nanos);
    EXPECT_EQ(got.frame.bytes, want.frame.bytes);
    EXPECT_EQ(got.text, want.text);
}

TEST(StreamCodecTest, OneReusedRecordDecodesLikeFreshRecords) {
    // The record bodies, each also decoded on its own into a fresh record.
    std::vector<Bytes> records(8);
    StreamHello hello;
    hello.seed = 9;
    encode_hello(records[0], hello);
    const std::vector<StreamHostEntry> dir = {
        {"alice", Ipv4Address{192, 168, 1, 10}, MacAddress::local(10)},
        {"bob", Ipv4Address{192, 168, 1, 11}, MacAddress::local(11)}};
    encode_directory(records[1], dir);
    encode_frame(records[2], 11u, Bytes(70, 0x5a));
    encode_alert(records[3], "{\"kind\":\"flip-flop\"}");
    encode_frame(records[4], 1u, Bytes(8, 0x01));
    records[4][4 + 1 + 8] ^= 0xff;  // the frame's inner length: a bad record
    encode_frame(records[5], 12u, Bytes(20, 0x11));  // shorter than the last frame
    encode_summary(records[6], "{\"frames\":2}");
    encode_end(records[7]);

    Bytes stream;
    for (const Bytes& r : records) stream.insert(stream.end(), r.begin(), r.end());
    StreamDecoder d;
    d.feed(stream);
    StreamRecord reused;
    for (std::size_t i = 0; i < records.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        const auto fresh =
            decode_record_body(std::span<const std::uint8_t>{records[i]}.subspan(4));
        const StreamDecoder::Status st = d.poll(reused);
        if (!fresh.ok()) {
            EXPECT_EQ(st, StreamDecoder::Status::kBadRecord);
            EXPECT_EQ(d.last_error(), fresh.error());
            continue;
        }
        ASSERT_EQ(st, StreamDecoder::Status::kRecord);
        expect_same_record(reused, fresh.value());
    }
    EXPECT_EQ(d.poll(reused), StreamDecoder::Status::kNeedMore);
    EXPECT_EQ(d.records(), 7u);
    EXPECT_EQ(d.bad_records(), 1u);
}

TEST(StreamCodecTest, ByteAtATimeFeedYieldsTheSameRecords) {
    Bytes buf;
    encode_hello(buf, StreamHello{});
    encode_frame(buf, 7u, Bytes(30, 0x01));
    encode_end(buf);

    StreamDecoder d;
    std::size_t got = 0;
    StreamRecord rec;
    for (const std::uint8_t b : buf) {
        d.feed(std::span<const std::uint8_t>(&b, 1));
        while (d.poll(rec) == StreamDecoder::Status::kRecord) ++got;
    }
    EXPECT_EQ(got, 3u);
    EXPECT_EQ(d.buffered(), 0u);
}

TEST(StreamCodecTest, BadRecordIsSkippedAndDecodingResumes) {
    Bytes buf;
    encode_hello(buf, StreamHello{});
    const std::size_t hello_end = buf.size();
    encode_frame(buf, 7u, Bytes(30, 0x01));
    encode_end(buf);
    // Corrupt the frame record's inner length field (not the framing
    // prefix): the record is skipped with a typed error, and the end
    // record after it still decodes.
    buf[hello_end + 4 + 1 + 8] ^= 0xff;

    StreamDecoder d;
    d.feed(buf);
    StreamRecord rec;
    ASSERT_EQ(d.poll(rec), StreamDecoder::Status::kRecord);
    EXPECT_EQ(rec.type, StreamRecordType::kHello);
    ASSERT_EQ(d.poll(rec), StreamDecoder::Status::kBadRecord);
    EXPECT_NE(d.last_error().find("frame length"), std::string::npos) << d.last_error();
    ASSERT_EQ(d.poll(rec), StreamDecoder::Status::kRecord);
    EXPECT_EQ(rec.type, StreamRecordType::kEnd);
    EXPECT_EQ(d.bad_records(), 1u);
}

TEST(StreamCodecTest, OversizedLengthPrefixIsFatal) {
    StreamDecoder d;
    Bytes buf;
    ByteWriter w{buf};
    w.u32(StreamDecoder::kMaxRecordBytes + 1);
    d.feed(buf);
    StreamRecord rec;
    EXPECT_EQ(d.poll(rec), StreamDecoder::Status::kFatal);
    EXPECT_TRUE(d.fatal());
    EXPECT_NE(d.last_error().find("length prefix"), std::string::npos) << d.last_error();
    // Fatal is terminal: more bytes never revive the stream.
    d.feed(buf);
    EXPECT_EQ(d.poll(rec), StreamDecoder::Status::kFatal);
}

TEST(StreamCodecTest, BadHelloIsTypedNotFatal) {
    Bytes buf;
    encode_hello(buf, StreamHello{});
    buf[4 + 1] ^= 0xff;  // corrupt the magic inside the body
    StreamDecoder d;
    d.feed(buf);
    StreamRecord rec;
    EXPECT_EQ(d.poll(rec), StreamDecoder::Status::kBadRecord);
    EXPECT_NE(d.last_error().find("hello magic"), std::string::npos) << d.last_error();
    EXPECT_FALSE(d.fatal());
}

}  // namespace
}  // namespace arpsec::wire
