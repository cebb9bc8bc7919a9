#include "wire/stream_codec.hpp"

#include <limits>
#include <utility>

namespace arpsec::wire {

namespace {

constexpr std::uint32_t kHelloMagic = 0x41535631;  // "ASV1"
constexpr std::uint32_t kStreamVersion = 1;

// A directory entry is at least ip(4) + mac(6) + name_len(2) bytes; used
// to reject a hostile count before any allocation happens.
constexpr std::size_t kMinDirectoryEntryBytes = 12;

/// Writes a record's length prefix and type byte; the caller appends the
/// other `body_len - 1` body bytes straight after them.
ByteWriter begin_record(Bytes& out, std::size_t body_len, StreamRecordType type) {
    ByteWriter w{out};
    w.u32(static_cast<std::uint32_t>(body_len));
    w.u8(static_cast<std::uint8_t>(type));
    return w;
}

}  // namespace

std::string to_string(StreamRecordType type) {
    switch (type) {
        case StreamRecordType::kHello: return "hello";
        case StreamRecordType::kDirectory: return "directory";
        case StreamRecordType::kFrame: return "frame";
        case StreamRecordType::kEnd: return "end";
        case StreamRecordType::kAlert: return "alert";
        case StreamRecordType::kSummary: return "summary";
    }
    return "unknown";
}

void encode_hello(Bytes& out, const StreamHello& hello) {
    ByteWriter w = begin_record(out, 1 + 4 + 4 + 8, StreamRecordType::kHello);
    w.u32(kHelloMagic);
    w.u32(hello.version);
    w.u64(hello.seed);
}

void encode_directory(Bytes& out, std::span<const StreamHostEntry> entries) {
    std::size_t body_len = 1 + 4;
    for (const StreamHostEntry& e : entries) body_len += 4 + 6 + 2 + e.name.size();
    ByteWriter w = begin_record(out, body_len, StreamRecordType::kDirectory);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const StreamHostEntry& e : entries) {
        w.ipv4(e.ip);
        w.mac(e.mac);
        w.u16(static_cast<std::uint16_t>(e.name.size()));
        w.bytes(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(e.name.data()), e.name.size()));
    }
}

void encode_frame(Bytes& out, std::uint64_t at_nanos, std::span<const std::uint8_t> frame) {
    ByteWriter w = begin_record(out, 1 + 8 + 4 + frame.size(), StreamRecordType::kFrame);
    w.u64(at_nanos);
    w.u32(static_cast<std::uint32_t>(frame.size()));
    w.bytes(frame);
}

void encode_end(Bytes& out) { begin_record(out, 1, StreamRecordType::kEnd); }

namespace {

void encode_text(Bytes& out, StreamRecordType type, const std::string& text) {
    ByteWriter w = begin_record(out, 1 + text.size(), type);
    w.bytes(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(text.data()),
                                          text.size()));
}

}  // namespace

void encode_alert(Bytes& out, const std::string& json_line) {
    encode_text(out, StreamRecordType::kAlert, json_line);
}

void encode_summary(Bytes& out, const std::string& json) {
    encode_text(out, StreamRecordType::kSummary, json);
}

namespace {

/// Decodes one record body into `rec`, reusing its buffers: every field of
/// the other record types is cleared first, so `rec` ends up equal to a
/// fresh decode. On failure `rec` is unspecified.
common::Expected<bool> decode_into(std::span<const std::uint8_t> body, StreamRecord& rec) {
    using Result = common::Expected<bool>;
    rec.hello = StreamHello{};
    rec.directory.clear();
    rec.frame.at_nanos = 0;
    rec.frame.bytes.clear();
    rec.text.clear();

    ByteReader r{body};
    const std::uint8_t raw_type = r.u8();
    if (!r.ok()) return Result::failure("stream: empty record body");

    switch (static_cast<StreamRecordType>(raw_type)) {
        case StreamRecordType::kHello: {
            rec.type = StreamRecordType::kHello;
            const std::uint32_t magic = r.u32();
            rec.hello.version = r.u32();
            rec.hello.seed = r.u64();
            if (!r.ok()) return Result::failure("stream: truncated hello record");
            if (magic != kHelloMagic) return Result::failure("stream: bad hello magic");
            if (rec.hello.version != kStreamVersion) {
                return Result::failure("stream: unsupported version " +
                                       std::to_string(rec.hello.version));
            }
            break;
        }
        case StreamRecordType::kDirectory: {
            rec.type = StreamRecordType::kDirectory;
            const std::uint32_t count = r.u32();
            if (!r.ok()) return Result::failure("stream: truncated directory record");
            if (count > r.remaining() / kMinDirectoryEntryBytes) {
                return Result::failure("stream: directory count " + std::to_string(count) +
                                       " exceeds record size");
            }
            rec.directory.reserve(count);
            for (std::uint32_t i = 0; i < count; ++i) {
                StreamHostEntry e;
                e.ip = r.ipv4();
                e.mac = r.mac();
                const std::uint16_t name_len = r.u16();
                const std::span<const std::uint8_t> name = r.take(name_len);
                if (!r.ok()) {
                    return Result::failure("stream: truncated directory entry " +
                                           std::to_string(i));
                }
                e.name.assign(name.begin(), name.end());
                rec.directory.push_back(std::move(e));
            }
            if (r.remaining() != 0) {
                return Result::failure("stream: trailing bytes after directory entries");
            }
            break;
        }
        case StreamRecordType::kFrame: {
            rec.type = StreamRecordType::kFrame;
            rec.frame.at_nanos = r.u64();
            const std::uint32_t len = r.u32();
            if (!r.ok()) return Result::failure("stream: truncated frame header");
            if (len != r.remaining()) {
                return Result::failure("stream: frame length " + std::to_string(len) +
                                       " disagrees with record body (" +
                                       std::to_string(r.remaining()) + " bytes left)");
            }
            const std::span<const std::uint8_t> frame = r.take(len);
            rec.frame.bytes.assign(frame.begin(), frame.end());
            break;
        }
        case StreamRecordType::kEnd: {
            rec.type = StreamRecordType::kEnd;
            if (r.remaining() != 0) return Result::failure("stream: end record has payload");
            break;
        }
        case StreamRecordType::kAlert:
        case StreamRecordType::kSummary: {
            rec.type = static_cast<StreamRecordType>(raw_type);
            // A char range: std::string assigns it in place (an iterator
            // range of bytes would go through a temporary string).
            const std::span<const std::uint8_t> text = r.take(r.remaining());
            rec.text.assign(reinterpret_cast<const char*>(text.data()), text.size());
            break;
        }
        default:
            return Result::failure("stream: unknown record type " + std::to_string(raw_type));
    }
    return Result{true};
}

}  // namespace

common::Expected<StreamRecord> decode_record_body(std::span<const std::uint8_t> body) {
    StreamRecord rec;
    if (auto decoded = decode_into(body, rec); !decoded.ok()) {
        return common::Expected<StreamRecord>::failure(std::move(decoded).error());
    }
    return rec;
}

void StreamDecoder::feed(std::span<const std::uint8_t> data) {
    bytes_fed_ += data.size();
    // Reclaim consumed prefix before it dominates the buffer; amortized
    // O(1) per byte because the threshold doubles the copy distance.
    if (pos_ > 4096 && pos_ > buf_.size() / 2) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data.begin(), data.end());
}

StreamDecoder::Status StreamDecoder::poll(StreamRecord& out) {
    if (fatal_) return Status::kFatal;
    const std::size_t available = buf_.size() - pos_;
    if (available < 4) return Status::kNeedMore;

    ByteReader header{std::span<const std::uint8_t>(buf_.data() + pos_, available)};
    const std::uint32_t body_len = header.u32();
    if (body_len == 0 || body_len > kMaxRecordBytes) {
        // The prefix itself is garbage, so the next record boundary is
        // unknowable — skipping would desynchronize every later record.
        fatal_ = true;
        error_ = "stream: length prefix " + std::to_string(body_len) +
                 " out of range (max " + std::to_string(kMaxRecordBytes) + ")";
        return Status::kFatal;
    }
    if (available < 4 + static_cast<std::size_t>(body_len)) return Status::kNeedMore;

    const std::span<const std::uint8_t> body(buf_.data() + pos_ + 4, body_len);
    pos_ += 4 + static_cast<std::size_t>(body_len);
    if (auto decoded = decode_into(body, out); !decoded.ok()) {
        ++bad_records_;
        error_ = std::move(decoded).error();
        return Status::kBadRecord;
    }
    ++records_;
    return Status::kRecord;
}

}  // namespace arpsec::wire
