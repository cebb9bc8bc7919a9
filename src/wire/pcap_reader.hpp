#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/time.hpp"
#include "wire/buffer.hpp"

namespace arpsec::wire {

/// LINKTYPE_ETHERNET: the only link layer the schemes can parse.
inline constexpr std::uint32_t kLinkTypeEthernet = 1;

/// One captured frame: timestamp, the captured bytes (caplen), and the
/// original on-wire length (orig_len >= bytes.size() when the capture was
/// snapped).
struct PcapRecord {
    common::SimTime at;
    std::uint32_t orig_len = 0;
    Bytes bytes;
};

/// A fully parsed classic-pcap capture file.
struct PcapTrace {
    std::uint32_t link_type = kLinkTypeEthernet;
    std::uint32_t snaplen = 65535;
    bool nanosecond = false;      // nanosecond-resolution magic variant
    bool big_endian = false;      // file written on a big-endian capturer
    std::vector<PcapRecord> records;
};

/// Reads classic libpcap captures (the input half of PcapWriter): both byte
/// orders (magic 0xa1b2c3d4 and its swap) and both timestamp resolutions
/// (microsecond 0xa1b2c3d4, nanosecond 0xa1b23c4d). Every entry point
/// drives the one PcapStreamReader decoder in kChunkSize pieces, so every
/// read is bounds checked the same way and malformed or truncated input
/// is surfaced as the same typed common::Expected failure naming the
/// offending record — parsers in src/wire/ never assert on
/// attacker-controlled bytes.
class PcapReader {
public:
    static constexpr std::size_t kGlobalHeaderSize = 24;
    static constexpr std::size_t kRecordHeaderSize = 16;
    /// Input is fed to the decoder this many bytes at a time.
    static constexpr std::size_t kChunkSize = 64 * 1024;

    using RecordSink = std::function<void(PcapRecord&&)>;

    /// Parses a whole capture from memory.
    static common::Expected<PcapTrace> parse(std::span<const std::uint8_t> data);

    /// Reads and parses `path`; I/O problems are failures too.
    static common::Expected<PcapTrace> read_file(const std::string& path);

    /// Streams `path` through the decoder, handing each record to
    /// `on_record` as soon as it completes; no buffer the size of the file
    /// is ever held. Returns the global header (with no records).
    static common::Expected<PcapTrace> stream_file(const std::string& path,
                                                   const RecordSink& on_record);
};

/// Incremental classic-pcap parser: feed transport/file chunks of any
/// size, poll records out as they complete. This is the decoder behind
/// every `PcapReader` entry point — a chunk boundary landing mid-header or
/// mid-body simply reports `kNeedMore` and resumes when the rest arrives,
/// which is what a tail -f style capture follower or a socket forwarder
/// needs.
///
/// Errors are sticky: pcap has no record-level resync marker, so a corrupt
/// header (bad magic, implausible captured length) poisons the rest of the
/// stream and every later poll repeats the typed error. Truncation is only
/// an error once the caller declares the stream over via `finish()`; a
/// stream that ends before its 24-byte global header, an empty one
/// included, is truncated too.
class PcapStreamReader {
public:
    enum class Status {
        kNeedMore,  ///< No complete record buffered; feed more (or finish()).
        kRecord,    ///< `out` holds the next record.
        kEnd,       ///< finish() was called and every buffered byte consumed.
        kError,     ///< Sticky parse failure; `last_error()` says why.
    };

    /// Appends capture bytes to the reassembly buffer.
    void feed(std::span<const std::uint8_t> data);

    /// Declares end-of-stream: leftover bytes become a truncation error.
    void finish() { finished_ = true; }

    /// Extracts the next record, if a complete one is buffered.
    Status poll(PcapRecord& out);

    /// Global-header fields; meaningful once `header_ready()`.
    [[nodiscard]] bool header_ready() const { return header_done_; }
    [[nodiscard]] std::uint32_t link_type() const { return link_type_; }
    [[nodiscard]] std::uint32_t snaplen() const { return snaplen_; }
    [[nodiscard]] bool nanosecond() const { return nanosecond_; }
    [[nodiscard]] bool big_endian() const { return big_endian_; }

    [[nodiscard]] const std::string& last_error() const { return error_; }
    [[nodiscard]] std::uint64_t records() const { return records_; }
    [[nodiscard]] std::uint64_t bytes_fed() const { return bytes_fed_; }
    /// Bytes buffered but not yet consumed by a poll.
    [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

private:
    Status fail(const std::string& error);

    Bytes buf_;
    std::size_t pos_ = 0;       // consumed prefix of buf_
    std::uint64_t base_ = 0;    // stream offset of buf_[0] (errors use absolute offsets)
    bool header_done_ = false;
    bool finished_ = false;
    bool failed_ = false;
    std::uint32_t link_type_ = kLinkTypeEthernet;
    std::uint32_t snaplen_ = 65535;
    bool nanosecond_ = false;
    bool big_endian_ = false;
    std::string error_;
    std::uint64_t records_ = 0;
    std::uint64_t bytes_fed_ = 0;
};

}  // namespace arpsec::wire
