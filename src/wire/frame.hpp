#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "wire/arp_packet.hpp"
#include "wire/buffer.hpp"
#include "wire/ethernet.hpp"
#include "wire/ipv4_packet.hpp"

namespace arpsec::wire {

/// Process-wide FrameView memo statistics. `parse_misses` counts real
/// header parses (one per captured buffer — origin buffers are pre-memoized
/// from the frame they serialized); `parse_hits` counts deliveries that
/// reused an existing memo. The ARP and IPv4 pairs count the same for the
/// lazy payload parses. Hits and misses both accumulate in a thread-local
/// batch that flush_frameview_hits() drains into relaxed atomics, keeping
/// the hot path free of atomic RMWs: a serve shard worker captures every
/// frame it feeds, so misses fire once per frame on every worker at once.
/// They are observability-only and never feed per-run artifacts (which
/// must be byte-identical across --jobs values).
struct FrameViewStats {
    std::uint64_t parse_hits = 0;
    std::uint64_t parse_misses = 0;
    std::uint64_t arp_hits = 0;
    std::uint64_t arp_misses = 0;
    std::uint64_t ipv4_hits = 0;
    std::uint64_t ipv4_misses = 0;
};

[[nodiscard]] FrameViewStats frameview_stats();
void reset_frameview_stats();

/// Drains the calling thread's batched hit and miss counts into the
/// process-wide totals. Call before a worker thread that touched FrameViews
/// exits (the replay engine and the serve shards do); frameview_stats()
/// flushes its own caller.
void flush_frameview_hits();

namespace frame_detail {

inline std::atomic<std::uint64_t> g_parse_hits{0};
inline std::atomic<std::uint64_t> g_parse_misses{0};
inline std::atomic<std::uint64_t> g_arp_hits{0};
inline std::atomic<std::uint64_t> g_arp_misses{0};
inline std::atomic<std::uint64_t> g_ipv4_hits{0};
inline std::atomic<std::uint64_t> g_ipv4_misses{0};

/// Per-thread hit and miss tally: the hot path pays one plain increment;
/// the batch drains into the atomics via flush_frameview_hits() (the replay
/// engine and the serve shards flush their worker threads;
/// frameview_stats() flushes its caller). Deliberately trivially
/// destructible — a destructor would force every TLS access through an
/// init-guard wrapper call, which is exactly the per-frame overhead this
/// batch exists to avoid. The cost: counts tallied on a thread that exits
/// without flushing are dropped — fine for observability counters.
struct HitBatch {
    std::uint64_t parse = 0;
    std::uint64_t arp = 0;
    std::uint64_t ipv4 = 0;
    std::uint64_t parse_miss = 0;
    std::uint64_t arp_miss = 0;
    std::uint64_t ipv4_miss = 0;

    void flush() {
        if (parse != 0) g_parse_hits.fetch_add(parse, std::memory_order_relaxed);
        if (arp != 0) g_arp_hits.fetch_add(arp, std::memory_order_relaxed);
        if (ipv4 != 0) g_ipv4_hits.fetch_add(ipv4, std::memory_order_relaxed);
        if (parse_miss != 0) g_parse_misses.fetch_add(parse_miss, std::memory_order_relaxed);
        if (arp_miss != 0) g_arp_misses.fetch_add(arp_miss, std::memory_order_relaxed);
        if (ipv4_miss != 0) g_ipv4_misses.fetch_add(ipv4_miss, std::memory_order_relaxed);
        parse = arp = ipv4 = parse_miss = arp_miss = ipv4_miss = 0;
    }
};

inline thread_local constinit HitBatch t_hits;

inline constexpr std::size_t kUnknownLen = std::numeric_limits<std::size_t>::max();

}  // namespace frame_detail

class FrameView;

/// Immutable, refcounted wire bytes plus a lazily populated parse memo.
/// A frame is serialized exactly once, at origin (`serialize()`), or
/// ingested verbatim from a capture (`capture()`); everything downstream —
/// taps, the switch flood/mirror path, scheme monitors, replay — shares the
/// same allocation by value. Copying a FrameBuffer bumps a refcount; the
/// bytes themselves are never copied, and never mutated while shared
/// (recapture() reuses a Rep only when it is the sole owner).
///
/// The memo (Ethernet header, ARP/IPv4 payload) is populated on first
/// access and is NOT synchronized, so a buffer stays on one thread. No
/// FrameView crosses threads: replay workers and serve shard workers each
/// capture their own view of every frame they feed.
class FrameBuffer {
public:
    FrameBuffer() = default;

    /// Origin path: serialize `frame` (padding to the Ethernet minimum) and
    /// pre-memoize its header and unpadded payload length — origin buffers
    /// never pay a header parse.
    [[nodiscard]] static FrameBuffer serialize(const EthernetFrame& frame);

    /// Capture path (pcap, replayed traces): adopt raw bytes verbatim. The
    /// unpadded payload length is unknown, so views expose the padded
    /// payload exactly as it appeared on the wire.
    [[nodiscard]] static FrameBuffer capture(Bytes bytes);
    [[nodiscard]] static FrameBuffer capture(std::span<const std::uint8_t> bytes);

    /// `*this = capture(bytes)`, without the allocations when nothing else
    /// shares this buffer: a sole owner copies `bytes` into the capacity its
    /// Rep already holds and forgets every memo, so the next parse is a miss
    /// again. A buffer some other view still holds (a scheme kept a
    /// FrameView, an event captured one) is left to it, and this one takes
    /// a fresh Rep, as capture() would. A worker that feeds one frame at a
    /// time recaptures every frame into one recycled FrameBuffer.
    void recapture(std::span<const std::uint8_t> bytes);

    [[nodiscard]] bool empty() const { return rep_ == nullptr; }
    [[nodiscard]] std::span<const std::uint8_t> bytes() const;
    [[nodiscard]] std::size_t size() const;

    /// Identity of the shared allocation: two FrameBuffers return the same
    /// pointer here iff they share bytes (the zero-copy forwarding oracle —
    /// a flooded frame must be identity-equal on every egress port).
    [[nodiscard]] const void* identity() const { return rep_.get(); }

    /// Shared state. Exposed (rather than pimpl'd) so the accessor fast
    /// paths inline into callers; treat as an implementation detail and go
    /// through FrameView instead.
    struct Rep {
        Bytes bytes;
        /// Unpadded payload size when origin-known, kUnknownLen for captures.
        std::size_t payload_len = frame_detail::kUnknownLen;

        bool eth_parsed = false;
        bool eth_ok = false;
        EthernetHeader header;

        bool arp_parsed = false;
        bool arp_ok = false;
        ArpPacket arp;

        bool ipv4_parsed = false;
        bool ipv4_ok = false;
        Ipv4Packet ipv4;

        bool frame_built = false;
        EthernetFrame frame;
    };

private:
    friend class FrameView;
    explicit FrameBuffer(std::shared_ptr<Rep> rep) : rep_(std::move(rep)) {}
    std::shared_ptr<Rep> rep_;
};

namespace frame_detail {

// Out-of-line slow paths (frame.cpp): first-touch parses that fill the memo.
void parse_header_slow(FrameBuffer::Rep& rep);
void parse_arp_slow(FrameBuffer::Rep& rep);
void parse_ipv4_slow(FrameBuffer::Rep& rep);

inline void ensure_header(FrameBuffer::Rep& rep) {
    if (!rep.eth_parsed) parse_header_slow(rep);
}

/// Precondition: rep.eth_ok (implies bytes.size() >= kHeaderSize).
inline std::span<const std::uint8_t> payload_span(const FrameBuffer::Rep& rep) {
    const std::span<const std::uint8_t> all{rep.bytes};
    const std::size_t wire_payload = all.size() - EthernetFrame::kHeaderSize;
    const std::size_t len =
        rep.payload_len == kUnknownLen ? wire_payload : std::min(rep.payload_len, wire_payload);
    return all.subspan(EthernetFrame::kHeaderSize, len);
}

}  // namespace frame_detail

/// Parse-once accessor over a FrameBuffer. Cheap to copy (one refcount);
/// all accessors are const and memoize into the shared buffer, so the
/// header and ARP/IPv4 payloads are decoded at most once no matter how many
/// nodes, taps, or schemes inspect the frame.
class FrameView {
public:
    FrameView() = default;
    explicit FrameView(FrameBuffer buffer) : buffer_(std::move(buffer)) {}

    /// True when the buffer carries a well-formed Ethernet II header with a
    /// supported EtherType. Every other accessor returns zero values until
    /// this holds.
    [[nodiscard]] bool ok() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return false;
        if (rep->eth_parsed) {
            ++frame_detail::t_hits.parse;
        } else {
            frame_detail::parse_header_slow(*rep);
        }
        return rep->eth_ok;
    }

    [[nodiscard]] const FrameBuffer& buffer() const { return buffer_; }
    [[nodiscard]] std::span<const std::uint8_t> bytes() const { return buffer_.bytes(); }

    [[nodiscard]] MacAddress dst() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return {};
        frame_detail::ensure_header(*rep);
        return rep->eth_ok ? rep->header.dst : MacAddress{};
    }

    [[nodiscard]] MacAddress src() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return {};
        frame_detail::ensure_header(*rep);
        return rep->eth_ok ? rep->header.src : MacAddress{};
    }

    [[nodiscard]] EtherType ether_type() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return EtherType::kIpv4;
        frame_detail::ensure_header(*rep);
        return rep->eth_ok ? rep->header.ether_type : EtherType::kIpv4;
    }

    /// The L2 payload. For origin buffers this is the *unpadded* payload
    /// the sender handed to serialize() (fixing the serialize→parse padding
    /// asymmetry); for captured buffers padding is indistinguishable from
    /// payload and is kept, as a pcap consumer would see it.
    [[nodiscard]] std::span<const std::uint8_t> payload() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return {};
        frame_detail::ensure_header(*rep);
        if (!rep->eth_ok) return {};
        return frame_detail::payload_span(*rep);
    }

    /// Materialized EthernetFrame (memoized; allocates once per buffer).
    /// Prefer the field accessors — this exists for round-trip tests and
    /// legacy consumers that need an owning frame.
    [[nodiscard]] const EthernetFrame& frame() const;

    /// The memoized ARP payload, or nullptr when the frame is not ARP or
    /// the payload does not parse.
    [[nodiscard]] const ArpPacket* arp() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return nullptr;
        frame_detail::ensure_header(*rep);
        if (!rep->eth_ok || rep->header.ether_type != EtherType::kArp) return nullptr;
        if (rep->arp_parsed) {
            ++frame_detail::t_hits.arp;
        } else {
            frame_detail::parse_arp_slow(*rep);
        }
        return rep->arp_ok ? &rep->arp : nullptr;
    }

    /// The memoized IPv4 payload, or nullptr when the frame is not IPv4 or
    /// the payload does not parse. Like arp(), the parse happens at most
    /// once per buffer no matter how many schemes inspect the packet.
    [[nodiscard]] const Ipv4Packet* ipv4() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return nullptr;
        frame_detail::ensure_header(*rep);
        if (!rep->eth_ok || rep->header.ether_type != EtherType::kIpv4) return nullptr;
        if (rep->ipv4_parsed) {
            ++frame_detail::t_hits.ipv4;
        } else {
            frame_detail::parse_ipv4_slow(*rep);
        }
        return rep->ipv4_ok ? &rep->ipv4 : nullptr;
    }

    /// Prefetch hint: pulls the shared memo's hot cache lines toward the
    /// CPU. A loop over an array of views visits them in order but the Rep
    /// allocations are scattered on the heap, so prefetching a few views
    /// ahead hides the per-buffer streaming miss.
    void prefetch() const {
#if defined(__GNUC__) || defined(__clang__)
        const FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep != nullptr) {
            __builtin_prefetch(rep);
            __builtin_prefetch(reinterpret_cast<const char*>(rep) + 64);
        }
#endif
    }

    /// Eagerly populates the header and payload (ARP or IPv4) memos that
    /// the accessors would otherwise fill on first use, so a profiler can
    /// time the parse apart from the code that reads it.
    void prime() const;

private:
    FrameBuffer buffer_;
};

}  // namespace arpsec::wire
