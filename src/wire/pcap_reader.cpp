#include "wire/pcap_reader.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

namespace arpsec::wire {

namespace {

constexpr std::uint32_t kMagicMicroLe = 0xa1b2c3d4u;
constexpr std::uint32_t kMagicMicroBe = 0xd4c3b2a1u;
constexpr std::uint32_t kMagicNanoLe = 0xa1b23c4du;
constexpr std::uint32_t kMagicNanoBe = 0x4d3cb2a1u;

// pcap headers use the capturer's native byte order, announced by the magic;
// ByteReader is fixed network order, so decode with an order flag instead.
std::uint32_t read_u32(std::span<const std::uint8_t> data, std::size_t off, bool swapped) {
    if (off + 4 > data.size()) return 0;  // callers bound off; keep the read total anyway
    const auto b0 = static_cast<std::uint32_t>(data[off]);
    const auto b1 = static_cast<std::uint32_t>(data[off + 1]);
    const auto b2 = static_cast<std::uint32_t>(data[off + 2]);
    const auto b3 = static_cast<std::uint32_t>(data[off + 3]);
    if (swapped) return (b0 << 24) | (b1 << 16) | (b2 << 8) | b3;
    return (b3 << 24) | (b2 << 16) | (b1 << 8) | b0;
}

std::string fmt_error(const std::string& what, std::size_t offset) {
    std::ostringstream os;
    os << "pcap: " << what << " at offset " << offset;
    return os.str();
}

}  // namespace

void PcapStreamReader::feed(std::span<const std::uint8_t> data) {
    bytes_fed_ += data.size();
    // Reclaim consumed prefix before appending; the threshold keeps the
    // copy cost amortized O(1) per byte.
    if (pos_ > 4096 && pos_ > buf_.size() / 2) {
        base_ += pos_;
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data.begin(), data.end());
}

PcapStreamReader::Status PcapStreamReader::fail(const std::string& error) {
    failed_ = true;
    error_ = error;
    return Status::kError;
}

PcapStreamReader::Status PcapStreamReader::poll(PcapRecord& out) {
    if (failed_) return Status::kError;
    const std::size_t available = buf_.size() - pos_;
    const std::span<const std::uint8_t> data(buf_.data() + pos_, available);

    if (!header_done_) {
        if (data.size() < PcapReader::kGlobalHeaderSize) {
            if (!finished_) return Status::kNeedMore;
            return fail("pcap: file too short for the 24-byte global header (" +
                        std::to_string(data.size()) + " bytes)");
        }
        const std::uint32_t magic = read_u32(data, 0, /*swapped=*/false);
        switch (magic) {
            case kMagicMicroLe:
                break;
            case kMagicNanoLe:
                nanosecond_ = true;
                break;
            case kMagicMicroBe:
                big_endian_ = true;
                break;
            case kMagicNanoBe:
                big_endian_ = true;
                nanosecond_ = true;
                break;
            default: {
                std::ostringstream os;
                os << "pcap: unrecognized magic 0x" << std::hex << magic;
                return fail(os.str());
            }
        }
        snaplen_ = read_u32(data, 16, big_endian_);
        link_type_ = read_u32(data, 20, big_endian_);
        pos_ += PcapReader::kGlobalHeaderSize;
        header_done_ = true;
        return poll(out);
    }

    if (data.empty()) return finished_ ? Status::kEnd : Status::kNeedMore;
    if (data.size() < PcapReader::kRecordHeaderSize) {
        if (finished_) {
            return fail(fmt_error(
                "truncated record header in record #" + std::to_string(records_),
                base_ + pos_));
        }
        return Status::kNeedMore;
    }

    const std::uint32_t ts_sec = read_u32(data, 0, big_endian_);
    const std::uint32_t ts_frac = read_u32(data, 4, big_endian_);
    const std::uint32_t incl_len = read_u32(data, 8, big_endian_);
    const std::uint32_t orig_len = read_u32(data, 12, big_endian_);

    if (incl_len > snaplen_ && incl_len > 0x0004'0000u) {
        // Far beyond any plausible snap length: a corrupt length field must
        // not make the stream wait forever for phantom bytes.
        return fail(fmt_error("implausible captured length " + std::to_string(incl_len) +
                                  " in record #" + std::to_string(records_),
                              base_ + pos_));
    }
    if (data.size() - PcapReader::kRecordHeaderSize < incl_len) {
        if (finished_) {
            return fail(fmt_error(
                "truncated record body in record #" + std::to_string(records_) + " (want " +
                    std::to_string(incl_len) + " bytes, have " +
                    std::to_string(data.size() - PcapReader::kRecordHeaderSize) + ")",
                base_ + pos_ + PcapReader::kRecordHeaderSize));
        }
        return Status::kNeedMore;
    }

    const std::int64_t frac_nanos = nanosecond_ ? static_cast<std::int64_t>(ts_frac)
                                                : static_cast<std::int64_t>(ts_frac) * 1000;
    out.at = common::SimTime{static_cast<std::int64_t>(ts_sec) * 1'000'000'000 + frac_nanos};
    out.orig_len = orig_len;
    const std::size_t body = pos_ + PcapReader::kRecordHeaderSize;
    out.bytes.assign(buf_.begin() + static_cast<std::ptrdiff_t>(body),
                     buf_.begin() + static_cast<std::ptrdiff_t>(body + incl_len));
    pos_ = body + incl_len;
    ++records_;
    return Status::kRecord;
}

namespace {

/// The one decode loop behind every PcapReader entry point: polls a fresh
/// decoder dry, handing each record to `on_record`, and calls `refill` to
/// feed it the next chunk, or finish() it, whenever it needs more.
template <typename Refill>
common::Expected<PcapTrace> drain(Refill refill, const PcapReader::RecordSink& on_record) {
    PcapStreamReader reader;
    PcapRecord rec;
    for (;;) {
        switch (reader.poll(rec)) {
            case PcapStreamReader::Status::kRecord:
                on_record(std::move(rec));
                break;
            case PcapStreamReader::Status::kNeedMore:
                refill(reader);
                break;
            case PcapStreamReader::Status::kEnd: {
                PcapTrace header;
                header.link_type = reader.link_type();
                header.snaplen = reader.snaplen();
                header.nanosecond = reader.nanosecond();
                header.big_endian = reader.big_endian();
                return header;
            }
            case PcapStreamReader::Status::kError:
                return common::Expected<PcapTrace>::failure(reader.last_error());
        }
    }
}

}  // namespace

common::Expected<PcapTrace> PcapReader::parse(std::span<const std::uint8_t> data) {
    std::vector<PcapRecord> records;
    auto trace = drain(
        [&](PcapStreamReader& reader) {
            const std::size_t n = std::min(kChunkSize, data.size());
            if (n == 0) reader.finish();
            reader.feed(data.first(n));
            data = data.subspan(n);
        },
        [&](PcapRecord&& rec) { records.push_back(std::move(rec)); });
    if (trace.ok()) trace->records = std::move(records);
    return trace;
}

common::Expected<PcapTrace> PcapReader::read_file(const std::string& path) {
    std::vector<PcapRecord> records;
    auto trace =
        stream_file(path, [&](PcapRecord&& rec) { records.push_back(std::move(rec)); });
    if (trace.ok()) trace->records = std::move(records);
    return trace;
}

common::Expected<PcapTrace> PcapReader::stream_file(const std::string& path,
                                                    const RecordSink& on_record) {
    using Result = common::Expected<PcapTrace>;
    std::ifstream in{path, std::ios::binary};
    if (!in) return Result::failure("pcap: cannot open '" + path + "'");
    // Not zero-filled: an empty capture costs one short read, not a 64 KiB memset.
    const auto chunk = std::make_unique_for_overwrite<std::uint8_t[]>(kChunkSize);
    bool unreadable = false;
    auto header = drain(
        [&](PcapStreamReader& reader) {
            in.read(reinterpret_cast<char*>(chunk.get()), kChunkSize);
            const auto n = static_cast<std::size_t>(in.gcount());
            unreadable = in.bad();  // e.g. a directory: it opens, but read() fails
            if (n == 0 || unreadable) reader.finish();
            reader.feed({chunk.get(), n});
        },
        on_record);
    if (unreadable) return Result::failure("pcap: cannot read '" + path + "'");
    return header;
}

}  // namespace arpsec::wire
