#include "wire/pcap_writer.hpp"

#include <cerrno>
#include <system_error>
#include <utility>

namespace arpsec::wire {

namespace {
constexpr std::uint32_t kMagic = 0xa1b2c3d4;
constexpr std::uint32_t kLinkTypeEthernet = 1;
constexpr std::uint32_t kSnapLen = 65535;

std::string write_failure(const std::string& path, int err) {
    return "cannot write '" + path + "': " + std::generic_category().message(err);
}

/// errno after a failed call, never 0: error_ doubles as the failure flag.
int last_error() { return errno != 0 ? errno : EIO; }
}  // namespace

common::Expected<PcapWriter> PcapWriter::open(const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) return common::Expected<PcapWriter>::failure(write_failure(path, errno));
    PcapWriter writer{path, file};
    writer.u32(kMagic);
    writer.u16(2);  // version major
    writer.u16(4);  // version minor
    writer.u32(0);  // thiszone
    writer.u32(0);  // sigfigs
    writer.u32(kSnapLen);
    writer.u32(kLinkTypeEthernet);
    return writer;
}

void PcapWriter::write(common::SimTime at, std::span<const std::uint8_t> frame) {
    const std::int64_t ns = at.nanos();
    u32(static_cast<std::uint32_t>(ns / 1'000'000'000));
    u32(static_cast<std::uint32_t>((ns % 1'000'000'000) / 1'000));
    u32(static_cast<std::uint32_t>(frame.size()));
    u32(static_cast<std::uint32_t>(frame.size()));
    put(frame.data(), frame.size());
    ++frames_;
}

common::Expected<bool> PcapWriter::close() {
    if (file_ != nullptr && std::fclose(file_.release()) != 0 && error_ == 0) {
        error_ = last_error();
    }
    if (error_ != 0) return common::Expected<bool>::failure(write_failure(path_, error_));
    return true;
}

void PcapWriter::put(const void* data, std::size_t size) {
    if (error_ != 0 || file_ == nullptr) return;
    if (std::fwrite(data, 1, size, file_.get()) != size) error_ = last_error();
}

void PcapWriter::u16(std::uint16_t v) {
    // pcap headers are written in the writer's native byte order; readers
    // detect it from the magic. We write little-endian explicitly for
    // platform-independent output.
    const std::uint8_t b[2] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8)};
    put(b, 2);
}

void PcapWriter::u32(std::uint32_t v) {
    const std::uint8_t b[4] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                               static_cast<std::uint8_t>(v >> 16),
                               static_cast<std::uint8_t>(v >> 24)};
    put(b, 4);
}

}  // namespace arpsec::wire
