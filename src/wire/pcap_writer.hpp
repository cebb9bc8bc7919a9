#pragma once

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/expected.hpp"
#include "common/time.hpp"

namespace arpsec::wire {

/// Writes captured frames in classic libpcap format (magic 0xa1b2c3d4,
/// LINKTYPE_ETHERNET), so simulated captures open directly in
/// Wireshark/tcpdump. This is the output half of the libpcap substitution
/// described in DESIGN.md.
class PcapWriter {
public:
    /// Creates `path` and emits the global header; fails with "cannot write
    /// '<path>': <reason>" when the file cannot be created.
    [[nodiscard]] static common::Expected<PcapWriter> open(const std::string& path);

    /// Appends one frame with the given capture timestamp. A failed write
    /// is kept and reported by close(); later frames are dropped.
    void write(common::SimTime at, std::span<const std::uint8_t> frame);

    /// Flushes and closes the file. Fails, naming the path, when a write or
    /// the close failed (a full disk shows up here). A writer destroyed
    /// without close() closes the file and drops that verdict.
    [[nodiscard]] common::Expected<bool> close();

    [[nodiscard]] std::size_t frames_written() const { return frames_; }

private:
    struct Closer {
        void operator()(std::FILE* f) const { std::fclose(f); }
    };

    PcapWriter(std::string path, std::FILE* file) : path_(std::move(path)), file_(file) {}
    void put(const void* data, std::size_t size);
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);

    std::string path_;
    std::unique_ptr<std::FILE, Closer> file_;
    std::size_t frames_ = 0;
    int error_ = 0;  // errno of the first failed write or close; 0 while all succeeded
};

}  // namespace arpsec::wire
