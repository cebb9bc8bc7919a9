#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "wire/ipv4_address.hpp"
#include "wire/mac_address.hpp"

namespace arpsec::wire {

using Bytes = std::vector<std::uint8_t>;

/// Appends big-endian (network byte order) fields to a byte vector.
class ByteWriter {
public:
    explicit ByteWriter(Bytes& out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(v); }
    void u16(std::uint16_t v) {
        out_.push_back(static_cast<std::uint8_t>(v >> 8));
        out_.push_back(static_cast<std::uint8_t>(v));
    }
    void u32(std::uint32_t v) {
        out_.push_back(static_cast<std::uint8_t>(v >> 24));
        out_.push_back(static_cast<std::uint8_t>(v >> 16));
        out_.push_back(static_cast<std::uint8_t>(v >> 8));
        out_.push_back(static_cast<std::uint8_t>(v));
    }
    void u64(std::uint64_t v) {
        u32(static_cast<std::uint32_t>(v >> 32));
        u32(static_cast<std::uint32_t>(v));
    }
    void mac(const MacAddress& m) {
        out_.insert(out_.end(), m.octets().begin(), m.octets().end());
    }
    void ipv4(const Ipv4Address& a) { u32(a.value()); }
    // lint:allow(untrusted-read-bounds): a full-range copy is bounded by the span itself
    void bytes(std::span<const std::uint8_t> b) { out_.insert(out_.end(), b.begin(), b.end()); }
    void fill(std::size_t n, std::uint8_t value = 0) { out_.insert(out_.end(), n, value); }

    [[nodiscard]] std::size_t size() const { return out_.size(); }

private:
    Bytes& out_;
};

/// Reads big-endian fields from a byte span with bounds checking. Any
/// out-of-bounds read sets a sticky failure flag and returns zeros; callers
/// check `ok()` once at the end of a parse instead of after every field.
class ByteReader {
public:
    explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint8_t u8() {
        if (!require(1)) return 0;
        return data_[pos_++];
    }
    std::uint16_t u16() {
        if (!require(2)) return 0;
        const std::uint16_t v =
            static_cast<std::uint16_t>(std::uint16_t{data_[pos_]} << 8 | data_[pos_ + 1]);
        pos_ += 2;
        return v;
    }
    std::uint32_t u32() {
        if (!require(4)) return 0;
        const std::uint32_t v = (std::uint32_t{data_[pos_]} << 24) |
                                (std::uint32_t{data_[pos_ + 1]} << 16) |
                                (std::uint32_t{data_[pos_ + 2]} << 8) | data_[pos_ + 3];
        pos_ += 4;
        return v;
    }
    std::uint64_t u64() {
        const std::uint64_t hi = u32();
        const std::uint64_t lo = u32();
        return (hi << 32) | lo;
    }
    MacAddress mac() {
        if (!require(MacAddress::kSize)) return {};
        std::array<std::uint8_t, MacAddress::kSize> o{};
        std::memcpy(o.data(), data_.data() + pos_, o.size());
        pos_ += o.size();
        return MacAddress{o};
    }
    Ipv4Address ipv4() { return Ipv4Address{u32()}; }
    /// The next `n` bytes in place (empty on failure): no copy is made.
    std::span<const std::uint8_t> take(std::size_t n) {
        if (!require(n)) return {};
        const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
        pos_ += n;
        return out;
    }
    Bytes bytes(std::size_t n) {
        const std::span<const std::uint8_t> in = take(n);
        return Bytes(in.begin(), in.end());
    }
    /// All bytes not yet consumed.
    Bytes rest() { return bytes(remaining()); }
    void skip(std::size_t n) {
        if (require(n)) pos_ += n;
    }

    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
    [[nodiscard]] std::size_t position() const { return pos_; }
    [[nodiscard]] bool ok() const { return ok_; }

private:
    bool require(std::size_t n) {
        if (data_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

}  // namespace arpsec::wire
