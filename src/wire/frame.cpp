#include "wire/frame.hpp"

#include <utility>

namespace arpsec::wire {

void flush_frameview_hits() { frame_detail::t_hits.flush(); }

FrameViewStats frameview_stats() {
    frame_detail::t_hits.flush();
    FrameViewStats s;
    s.parse_hits = frame_detail::g_parse_hits.load(std::memory_order_relaxed);
    s.parse_misses = frame_detail::g_parse_misses.load(std::memory_order_relaxed);
    s.arp_hits = frame_detail::g_arp_hits.load(std::memory_order_relaxed);
    s.arp_misses = frame_detail::g_arp_misses.load(std::memory_order_relaxed);
    s.ipv4_hits = frame_detail::g_ipv4_hits.load(std::memory_order_relaxed);
    s.ipv4_misses = frame_detail::g_ipv4_misses.load(std::memory_order_relaxed);
    return s;
}

void reset_frameview_stats() {
    frame_detail::t_hits = frame_detail::HitBatch{};
    frame_detail::g_parse_hits.store(0, std::memory_order_relaxed);
    frame_detail::g_parse_misses.store(0, std::memory_order_relaxed);
    frame_detail::g_arp_hits.store(0, std::memory_order_relaxed);
    frame_detail::g_arp_misses.store(0, std::memory_order_relaxed);
    frame_detail::g_ipv4_hits.store(0, std::memory_order_relaxed);
    frame_detail::g_ipv4_misses.store(0, std::memory_order_relaxed);
}

namespace frame_detail {

void parse_header_slow(FrameBuffer::Rep& rep) {
    ++t_hits.parse_miss;
    rep.eth_parsed = true;
    auto header = parse_ethernet_header(rep.bytes);
    rep.eth_ok = header.ok();
    if (rep.eth_ok) rep.header = header.value();
}

void parse_arp_slow(FrameBuffer::Rep& rep) {
    ++t_hits.arp_miss;
    rep.arp_parsed = true;
    auto parsed = ArpPacket::parse(payload_span(rep));
    rep.arp_ok = parsed.ok();
    if (rep.arp_ok) rep.arp = std::move(parsed).value();
}

void parse_ipv4_slow(FrameBuffer::Rep& rep) {
    ++t_hits.ipv4_miss;
    rep.ipv4_parsed = true;
    auto parsed = Ipv4Packet::parse(payload_span(rep));
    rep.ipv4_ok = parsed.ok();
    if (rep.ipv4_ok) rep.ipv4 = std::move(parsed).value();
}

}  // namespace frame_detail

FrameBuffer FrameBuffer::serialize(const EthernetFrame& frame) {
    auto rep = std::make_shared<Rep>();
    rep->bytes = frame.serialize();
    rep->payload_len = frame.payload.size();
    // The origin knows its own header — memoize it for free so origin
    // buffers never pay a parse, no matter how many hops read them.
    rep->eth_parsed = true;
    rep->eth_ok = true;
    rep->header = EthernetHeader{frame.dst, frame.src, frame.ether_type};
    return FrameBuffer{std::move(rep)};
}

FrameBuffer FrameBuffer::capture(Bytes bytes) {
    auto rep = std::make_shared<Rep>();
    rep->bytes = std::move(bytes);
    return FrameBuffer{std::move(rep)};
}

FrameBuffer FrameBuffer::capture(std::span<const std::uint8_t> bytes) {
    // lint:allow(untrusted-read-bounds): a full-range copy is bounded by the span itself
    return capture(Bytes{bytes.begin(), bytes.end()});
}

void FrameBuffer::recapture(std::span<const std::uint8_t> bytes) {
    if (rep_ == nullptr || rep_.use_count() != 1) {
        *this = capture(bytes);
        return;
    }
    Rep& rep = *rep_;
    // lint:allow(untrusted-read-bounds): a full-range copy is bounded by the span itself
    rep.bytes.assign(bytes.begin(), bytes.end());
    rep.payload_len = frame_detail::kUnknownLen;
    rep.eth_parsed = rep.eth_ok = false;
    rep.arp_parsed = rep.arp_ok = false;
    rep.ipv4_parsed = rep.ipv4_ok = false;
    rep.frame_built = false;
}

std::span<const std::uint8_t> FrameBuffer::bytes() const {
    if (rep_ == nullptr) return {};
    return rep_->bytes;
}

std::size_t FrameBuffer::size() const { return rep_ == nullptr ? 0 : rep_->bytes.size(); }

const EthernetFrame& FrameView::frame() const {
    static const EthernetFrame kEmpty{};
    FrameBuffer::Rep* rep = buffer_.rep_.get();
    if (rep == nullptr) return kEmpty;
    frame_detail::ensure_header(*rep);
    if (!rep->eth_ok) return kEmpty;
    if (!rep->frame_built) {
        rep->frame_built = true;
        rep->frame.dst = rep->header.dst;
        rep->frame.src = rep->header.src;
        rep->frame.ether_type = rep->header.ether_type;
        const auto p = frame_detail::payload_span(*rep);
        rep->frame.payload.assign(p.begin(), p.end());
    }
    return rep->frame;
}

void FrameView::prime() const {
    FrameBuffer::Rep* rep = buffer_.rep_.get();
    if (rep == nullptr) return;
    frame_detail::ensure_header(*rep);
    if (!rep->eth_ok) return;
    if (rep->header.ether_type == EtherType::kArp && !rep->arp_parsed) {
        frame_detail::parse_arp_slow(*rep);
    }
    if (rep->header.ether_type == EtherType::kIpv4 && !rep->ipv4_parsed) {
        frame_detail::parse_ipv4_slow(*rep);
    }
}

}  // namespace arpsec::wire
