// Allocation guard for the serve and replay hot paths. This executable
// replaces every form of the global operator new and delete with versions
// that count allocations, then checks that, once warmed up, the per-frame
// and per-alert steps allocate nothing: the stream decoder polling into one
// reused record, a batch arena filled and cleared, a recaptured frame
// parsed, a monitor scheme's session fed frames that change nothing, and an
// alert formatted and encoded into reused buffers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>  // lint:allow(naked-new): the allocator this test replaces
#include <span>
#include <string>
#include <vector>

#include "detect/alert.hpp"
#include "detect/registry.hpp"
#include "replay/session.hpp"
#include "serve/alert_stream.hpp"
#include "serve/shard.hpp"
#include "wire/arp_packet.hpp"
#include "wire/dhcp_message.hpp"
#include "wire/ethernet.hpp"
#include "wire/frame.hpp"
#include "wire/ipv4_packet.hpp"
#include "wire/stream_codec.hpp"
#include "wire/udp_datagram.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

/// Every replacement below allocates here. `align` 0 is the default
/// alignment.
void* counted_alloc(std::size_t size, std::size_t align = 0) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0) size = 1;
    // aligned_alloc wants a size that is a multiple of the alignment.
    void* p = align == 0 ? std::malloc(size)  // lint:allow(naked-new): the allocator itself
                         : std::aligned_alloc(align, (size + align - 1) / align * align);
    if (p == nullptr) throw std::bad_alloc{};
    return p;
}

void* counted_nothrow(std::size_t size, std::size_t align = 0) noexcept {
    try {
        return counted_alloc(size, align);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

/// Allocations made while `f` runs (on any thread; the tests start none).
template <class F>
std::uint64_t allocations_during(F&& f) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    f();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

std::size_t al(std::align_val_t a) { return static_cast<std::size_t>(a); }

}  // namespace

// Replacements of every global allocation form. naked-new flags the word
// `new`; these lines define the operators rather than call them.
using std::align_val_t;
using std::nothrow_t;
using std::size_t;
// lint:allow(naked-new)
void* operator new(size_t n) { return counted_alloc(n); }
// lint:allow(naked-new)
void* operator new[](size_t n) { return counted_alloc(n); }
// lint:allow(naked-new)
void* operator new(size_t n, const nothrow_t&) noexcept { return counted_nothrow(n); }
// lint:allow(naked-new)
void* operator new[](size_t n, const nothrow_t&) noexcept { return counted_nothrow(n); }
// lint:allow(naked-new)
void* operator new(size_t n, align_val_t a) { return counted_alloc(n, al(a)); }
// lint:allow(naked-new)
void* operator new[](size_t n, align_val_t a) { return counted_alloc(n, al(a)); }
// lint:allow(naked-new)
void* operator new(size_t n, align_val_t a, const nothrow_t&) noexcept {
    return counted_nothrow(n, al(a));
}
// lint:allow(naked-new)
void* operator new[](size_t n, align_val_t a, const nothrow_t&) noexcept {
    return counted_nothrow(n, al(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, align_val_t) noexcept { std::free(p); }
void operator delete(void* p, align_val_t, const nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, align_val_t, const nothrow_t&) noexcept { std::free(p); }

namespace arpsec {
namespace {

constexpr int kWarmupRounds = 8;
constexpr int kRounds = 200;

/// An ARP request from host `h`, padded (60 bytes) or not (42 bytes).
wire::Bytes arp_frame(std::uint8_t h, bool padded) {
    wire::EthernetFrame f;
    f.src = wire::MacAddress::local(h);
    f.dst = wire::MacAddress::broadcast();
    f.ether_type = wire::EtherType::kArp;
    f.payload = wire::ArpPacket::request(wire::MacAddress::local(h),
                                         wire::Ipv4Address{10, 0, 0, h},
                                         wire::Ipv4Address{10, 0, 0, 254})
                    .serialize();
    wire::Bytes bytes = f.serialize();
    if (!padded) bytes.resize(wire::EthernetFrame::kHeaderSize + wire::ArpPacket::kClassicSize);
    return bytes;
}

TEST(AllocGuardTest, CountingAllocatorSeesAllocations) {
    // The guard itself: a vector that grows is counted.
    const std::uint64_t n = allocations_during([] {
        std::vector<int> v(16, 1);
        EXPECT_EQ(v.size(), 16u);
    });
    EXPECT_GE(n, 1u);
}

TEST(AllocGuardTest, StreamDecoderPollsFramesAndAlertsIntoOneRecord) {
    // One transport chunk: frames of 42 to 1514 bytes between alert lines
    // of different lengths, more than 4 KiB in all.
    wire::Bytes chunk;
    for (std::uint8_t i = 0; i < 64; ++i) {
        wire::Bytes frame = arp_frame(i, i % 2 == 0);
        if (i % 16 == 0) frame.resize(1514, 0);
        wire::encode_frame(chunk, 1000u * i, frame);
        if (i % 4 == 0) wire::encode_alert(chunk, std::string(40 + i, 'a'));
    }
    wire::StreamDecoder decoder;
    wire::StreamRecord rec;
    std::uint64_t records = 0;
    const auto round = [&] {
        decoder.feed(chunk);
        while (decoder.poll(rec) == wire::StreamDecoder::Status::kRecord) ++records;
    };
    for (int i = 0; i < kWarmupRounds; ++i) round();
    const std::uint64_t n = allocations_during([&] {
        for (int i = 0; i < kRounds; ++i) round();
    });
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(records, static_cast<std::uint64_t>(kWarmupRounds + kRounds) * (64 + 16));
    EXPECT_EQ(decoder.bad_records(), 0u);
}

TEST(AllocGuardTest, BatchArenaAddAndClearOverFullBatches) {
    std::vector<wire::Bytes> frames;
    for (std::size_t i = 0; i < serve::kBatchFrames; ++i) {
        wire::Bytes frame = arp_frame(static_cast<std::uint8_t>(i), i % 2 == 0);
        if (i % 32 == 0) frame.resize(1514, 0);
        frames.push_back(std::move(frame));
    }
    serve::Batch batch;
    std::uint64_t bytes = 0;
    const auto round = [&] {
        for (std::size_t i = 0; i < frames.size(); ++i) {
            batch.add(common::SimTime{static_cast<std::int64_t>(i)}, frames[i]);
        }
        for (const serve::FrameRef& f : batch.frames) bytes += batch.bytes(f).size();
        batch.clear();
    };
    for (int i = 0; i < kWarmupRounds; ++i) round();
    const std::uint64_t n = allocations_during([&] {
        for (int i = 0; i < kRounds; ++i) round();
    });
    EXPECT_EQ(n, 0u);
    EXPECT_GT(bytes, 0u);
}

TEST(AllocGuardTest, RecaptureParsesArpFramesWithoutAllocating) {
    std::vector<wire::Bytes> frames;
    for (std::uint8_t i = 1; i <= 64; ++i) frames.push_back(arp_frame(i, i % 3 != 0));
    wire::FrameBuffer buffer;
    std::uint64_t arp_ok = 0;
    const auto round = [&] {
        for (const wire::Bytes& bytes : frames) {
            buffer.recapture(bytes);
            const wire::FrameView view{buffer};
            if (view.ok() && view.arp() != nullptr) ++arp_ok;
        }
    };
    for (int i = 0; i < kWarmupRounds; ++i) round();
    const std::uint64_t n = allocations_during([&] {
        for (int i = 0; i < kRounds; ++i) round();
    });
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(arp_ok, static_cast<std::uint64_t>(kWarmupRounds + kRounds) * frames.size());
}

/// Host `h`'s address; its station MAC is MacAddress::local(h).
wire::Ipv4Address host_ip(std::uint8_t h) { return wire::Ipv4Address{10, 0, 0, h}; }

wire::Bytes ipv4_frame(std::uint8_t from, std::uint8_t to, const wire::Bytes& udp) {
    wire::Ipv4Packet ip;
    ip.protocol = wire::IpProto::kUdp;
    ip.src = host_ip(from);
    ip.dst = host_ip(to);
    ip.payload = udp;
    wire::EthernetFrame f;
    f.src = wire::MacAddress::local(from);
    f.dst = wire::MacAddress::local(to);
    f.ether_type = wire::EtherType::kIpv4;
    f.payload = ip.serialize();
    return f.serialize();
}

/// Unicast UDP from host `from` to host `to`, `size` payload bytes.
wire::Bytes unicast_frame(std::uint8_t from, std::uint8_t to, std::size_t size) {
    wire::UdpDatagram udp;
    udp.src_port = 40000;
    udp.dst_port = 9;
    udp.payload = wire::Bytes(size, from);
    return ipv4_frame(from, to, udp.serialize());
}

/// The DHCP server (host 254) acknowledging host `h`'s lease on its address.
wire::Bytes dhcp_ack_frame(std::uint8_t h) {
    wire::DhcpMessage ack;
    ack.op = 2;
    ack.xid = h;
    ack.yiaddr = host_ip(h);
    ack.chaddr = wire::MacAddress::local(h);
    ack.message_type = wire::DhcpMessageType::kAck;
    ack.lease_seconds = 3600;
    ack.server_id = host_ip(254);
    ack.subnet_mask = wire::Ipv4Address{255, 255, 255, 0};
    ack.router = host_ip(254);
    wire::UdpDatagram udp;
    udp.src_port = wire::DhcpMessage::kServerPort;
    udp.dst_port = wire::DhcpMessage::kClientPort;
    udp.payload = ack.serialize();
    return ipv4_frame(254, h, udp.serialize());
}

TEST(AllocGuardTest, MonitorSessionFeedsKnownTrafficWithoutAllocating) {
    // Frames that only re-assert what a scheme already knows: ARP from
    // stations at their own bindings, unicast IPv4 between them, and the
    // server re-acknowledging each lease. They raise no alert and start no
    // probe, so feeding them must not touch the heap once warmed up.
    constexpr std::uint8_t kHosts = 12;
    replay::SessionOptions options;
    for (std::uint8_t h = 1; h <= kHosts; ++h) {
        options.directory.push_back(
            detect::HostRecord{std::to_string(h), host_ip(h), wire::MacAddress::local(h)});
    }
    std::vector<wire::Bytes> frames;
    for (std::uint8_t h = 1; h <= kHosts; ++h) {
        frames.push_back(dhcp_ack_frame(h));
        frames.push_back(arp_frame(h, h % 2 == 0));
        const auto peer = static_cast<std::uint8_t>(h % kHosts + 1);
        frames.push_back(unicast_frame(h, peer, 18 + 90u * h));
    }

    const detect::Registry registry;
    for (const char* scheme : {"arpwatch", "snort-arpspoof", "active-probe", "lease-monitor"}) {
        SCOPED_TRACE(scheme);
        replay::SchemeSession session{registry.make(scheme), options};
        wire::FrameBuffer capture;
        common::SimTime at;
        const auto round = [&] {
            for (const wire::Bytes& bytes : frames) {
                at += common::Duration::millis(1);
                capture.recapture(bytes);
                const wire::FrameView view{capture};
                EXPECT_TRUE(session.feed(at, view));
            }
        };
        for (int i = 0; i < kWarmupRounds; ++i) round();
        const std::uint64_t n = allocations_during([&] {
            for (int i = 0; i < kRounds; ++i) round();
        });
        EXPECT_EQ(n, 0u);
        EXPECT_EQ(session.alerts().count(), 0u);
        EXPECT_EQ(session.frames(), (kWarmupRounds + kRounds) * frames.size());
    }
}

TEST(AllocGuardTest, AlertLineAndRecordIntoReusedBuffers) {
    // What a shard worker does per alert, with a long kind name and a
    // detail that needs escaping.
    detect::Alert alert;
    alert.scheme = "snort-arpspoof";
    alert.kind = detect::AlertKind::kInconsistentHeader;
    alert.ip = wire::Ipv4Address{192, 168, 100, 200};
    alert.claimed_mac = wire::MacAddress::local(0xab);
    alert.previous_mac = wire::MacAddress::local(0xcd);
    alert.detail = "ethernet source \"02:00:00:00:00:ab\" != arp sender\n";
    std::string line;
    wire::Bytes out;
    std::size_t encoded = 0;
    const auto round = [&] {
        for (int k = 0; k < 64; ++k) {
            alert.at = common::SimTime{-1'000'000'007LL * k};
            line.clear();
            serve::append_alert_line(line, alert);
            wire::encode_alert(out, line);
        }
        encoded += out.size();
        out.clear();
    };
    for (int i = 0; i < kWarmupRounds; ++i) round();
    const std::uint64_t n = allocations_during([&] {
        for (int i = 0; i < kRounds; ++i) round();
    });
    EXPECT_EQ(n, 0u);
    EXPECT_GT(encoded, 0u);
    EXPECT_EQ(line, serve::alert_line(alert));
}

}  // namespace
}  // namespace arpsec
