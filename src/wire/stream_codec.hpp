#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "wire/buffer.hpp"
#include "wire/ipv4_address.hpp"
#include "wire/mac_address.hpp"

namespace arpsec::wire {

/// `arpsec.stream.v1` — the length-prefixed record framing spoken between
/// `arpsec-loadgen` (or any capture forwarder) and `arpsec-served`.
///
/// Every record is `u32 body_len` (big-endian) followed by `body_len`
/// bytes of body; the first body byte is the record type. The framing is
/// transport-agnostic: the same bytes flow over a Unix socket, a TCP
/// socket, or a socketpair, and the decoder below is incremental so
/// a reader can feed whatever chunk sizes the transport hands it.
///
/// Client -> server: kHello (once), kDirectory (optional, once, before any
/// frame), kFrame (repeated), kEnd. Server -> client: kAlert (repeated,
/// one JSONL `arpsec.alert-stream.v1` line each) and kSummary (final
/// scorecard JSON).
enum class StreamRecordType : std::uint8_t {
    kHello = 0x01,
    kDirectory = 0x02,
    kFrame = 0x03,
    kEnd = 0x04,
    kAlert = 0x10,
    kSummary = 0x11,
};

[[nodiscard]] std::string to_string(StreamRecordType type);

/// First record on every stream; lets the server reject incompatible
/// peers before any frame is admitted.
struct StreamHello {
    std::uint32_t version = 1;
    std::uint64_t seed = 1;  ///< Seed for the per-shard offline LANs.
};

/// One `detect::HostRecord` equivalent. The wire layer cannot depend on
/// detect (layering), so the codec carries the fields and serve converts.
struct StreamHostEntry {
    std::string name;
    Ipv4Address ip;
    MacAddress mac;
};

/// One captured frame plus its capture timestamp (nanoseconds since the
/// stream epoch — virtual time on the serve side).
struct StreamFrame {
    std::uint64_t at_nanos = 0;
    Bytes bytes;
};

/// A decoded record. `type` says which member is meaningful.
struct StreamRecord {
    StreamRecordType type = StreamRecordType::kEnd;
    StreamHello hello;                       // kHello
    std::vector<StreamHostEntry> directory;  // kDirectory
    StreamFrame frame;                       // kFrame
    std::string text;                        // kAlert / kSummary (UTF-8 JSON)
};

/// Serializers append one complete record (length prefix included) to
/// `out`, so callers can batch several records into a single write. They
/// write straight into `out`: no temporary body is built.
void encode_hello(Bytes& out, const StreamHello& hello);
void encode_directory(Bytes& out, std::span<const StreamHostEntry> entries);
void encode_frame(Bytes& out, std::uint64_t at_nanos, std::span<const std::uint8_t> frame);
void encode_end(Bytes& out);
void encode_alert(Bytes& out, const std::string& json_line);
void encode_summary(Bytes& out, const std::string& json);

/// Incremental decoder for the record stream. Feed it transport chunks of
/// any size, then poll until it reports `kNeedMore`.
///
/// Error containment mirrors the repo's parser contract: a record whose
/// body fails validation is *skipped* (`kBadRecord`, with a typed error
/// naming the record and offset) and decoding resumes at the next length
/// prefix — one corrupt frame must not kill a long-lived daemon. The only
/// unrecoverable state is a corrupt length prefix (zero or larger than
/// `kMaxRecordBytes`): record boundaries are gone at that point, so the
/// decoder latches `fatal()` rather than guessing at a resync.
class StreamDecoder {
public:
    /// Upper bound on a record body. Generous for any real frame (an
    /// Ethernet frame is <64 KiB even with jumbo encapsulation) while
    /// keeping a hostile length prefix from reserving gigabytes.
    static constexpr std::size_t kMaxRecordBytes = 1u << 20;

    enum class Status {
        kNeedMore,   ///< Buffer holds no complete record; feed more bytes.
        kRecord,     ///< `out` holds the next record.
        kBadRecord,  ///< A record was skipped; `last_error()` says why.
        kFatal,      ///< Framing lost; the connection must be dropped.
    };

    /// Appends transport bytes to the internal reassembly buffer.
    void feed(std::span<const std::uint8_t> data);

    /// Extracts the next record, if a complete one is buffered, into `out`
    /// in place: its buffers are reused and the fields of every other record
    /// type are cleared, so a record kept across polls ends up equal to a
    /// fresh decode and stops allocating once its buffers have grown. After
    /// kBadRecord `out` is unspecified.
    Status poll(StreamRecord& out);

    [[nodiscard]] bool fatal() const { return fatal_; }
    [[nodiscard]] const std::string& last_error() const { return error_; }
    [[nodiscard]] std::uint64_t records() const { return records_; }
    [[nodiscard]] std::uint64_t bad_records() const { return bad_records_; }
    [[nodiscard]] std::uint64_t bytes_fed() const { return bytes_fed_; }
    /// Bytes buffered but not yet consumed by a poll.
    [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

private:
    Bytes buf_;
    std::size_t pos_ = 0;
    std::string error_;
    bool fatal_ = false;
    std::uint64_t records_ = 0;
    std::uint64_t bad_records_ = 0;
    std::uint64_t bytes_fed_ = 0;
};

/// Parses one record body (everything after the length prefix). Exposed
/// for tests; `StreamDecoder` is the transport-facing entry point.
[[nodiscard]] common::Expected<StreamRecord> decode_record_body(
    std::span<const std::uint8_t> body);

}  // namespace arpsec::wire
