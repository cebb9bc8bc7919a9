#include "wire/udp_datagram.hpp"

#include "wire/checksum.hpp"

namespace arpsec::wire {

Bytes UdpDatagram::serialize() const {
    Bytes out;
    out.reserve(kHeaderSize + payload.size());
    ByteWriter w{out};
    w.u16(src_port);
    w.u16(dst_port);
    w.u16(static_cast<std::uint16_t>(kHeaderSize + payload.size()));
    w.u16(0);  // checksum placeholder
    w.bytes(payload);
    const std::uint16_t csum = internet_checksum(out);
    out[6] = static_cast<std::uint8_t>(csum >> 8);
    out[7] = static_cast<std::uint8_t>(csum);
    return out;
}

common::Expected<UdpView> UdpDatagram::view(std::span<const std::uint8_t> data) {
    using R = common::Expected<UdpView>;
    if (data.size() < kHeaderSize) return R::failure("UDP datagram shorter than header");
    ByteReader r{data};
    UdpView v;
    v.src_port = r.u16();
    v.dst_port = r.u16();
    const std::uint16_t len = r.u16();
    r.u16();  // checksum
    if (len < kHeaderSize || len > data.size()) {
        return R::failure("UDP length inconsistent with buffer");
    }
    // Verify checksum over exactly `len` bytes (the buffer may carry
    // Ethernet padding past the datagram).
    if (internet_checksum(data.first(len)) != 0) {
        return R::failure("UDP checksum mismatch");
    }
    v.payload = r.take(len - kHeaderSize);
    if (!r.ok()) return R::failure("UDP payload truncated");
    return v;
}

common::Expected<UdpDatagram> UdpDatagram::parse(std::span<const std::uint8_t> data) {
    using R = common::Expected<UdpDatagram>;
    const auto v = view(data);
    if (!v.ok()) return R::failure(v.error());
    UdpDatagram d;
    d.src_port = v->src_port;
    d.dst_port = v->dst_port;
    d.payload.assign(v->payload.begin(), v->payload.end());
    return d;
}

}  // namespace arpsec::wire
