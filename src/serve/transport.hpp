#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/expected.hpp"

namespace arpsec::serve {

/// Result of one blocking read attempt on a transport connection.
struct IoResult {
    enum class Kind {
        kData,     ///< `bytes` bytes were read.
        kEof,      ///< Peer closed cleanly; no more data will arrive.
        kTimeout,  ///< `timeout_ms` elapsed with no data.
        kError,    ///< Transport failure; `error` says why.
    };
    Kind kind = Kind::kEof;
    std::size_t bytes = 0;
    std::string error;
};

/// One bidirectional byte stream carrying `arpsec.stream.v1` records.
/// Implementations: Unix-domain socket, TCP socket, and an in-process pipe
/// (deterministic tests, no kernel involved). The framing layer on top is
/// identical for all three — that is the point of the abstraction.
///
/// Thread contract: one thread reads while others write (the daemon reads
/// frames on the intake thread while its shard workers write kAlert
/// batches). Concurrent writers must serialize whole writes themselves;
/// the daemon holds one lock per write_all.
class Connection {
public:
    virtual ~Connection() = default;

    /// Reads up to `buf.size()` bytes. `timeout_ms < 0` blocks
    /// indefinitely; `timeout_ms >= 0` returns kTimeout if nothing arrives
    /// in time (the serve read/idle timeout mechanism).
    [[nodiscard]] virtual IoResult read_some(std::span<std::uint8_t> buf, int timeout_ms) = 0;

    /// Writes the whole span (blocking). Returns false when the peer is
    /// gone; a daemon treats that as the client abandoning the stream.
    [[nodiscard]] virtual bool write_all(std::span<const std::uint8_t> data) = 0;

    /// Closes both directions; a blocked read_some on another thread
    /// returns kEof/kError promptly, and later writes fail.
    virtual void close() = 0;

    /// Human-readable peer description for logs ("unix:/tmp/x.sock", "pipe").
    [[nodiscard]] virtual std::string peer() const = 0;
};

/// Accepts connections for the daemon side of socket transports.
class Listener {
public:
    virtual ~Listener() = default;

    /// Waits up to `timeout_ms` (<0 = forever) for one client.
    [[nodiscard]] virtual common::Expected<std::unique_ptr<Connection>> accept(
        int timeout_ms) = 0;

    virtual void close() = 0;

    [[nodiscard]] virtual std::string address() const = 0;
};

/// Unix-domain stream socket bound at `path` (unlinked first if stale).
[[nodiscard]] common::Expected<std::unique_ptr<Listener>> listen_unix(const std::string& path);
/// TCP listener on 127.0.0.1:`port` (port 0 picks a free port; see address()).
[[nodiscard]] common::Expected<std::unique_ptr<Listener>> listen_tcp(std::uint16_t port);

[[nodiscard]] common::Expected<std::unique_ptr<Connection>> connect_unix(
    const std::string& path);
[[nodiscard]] common::Expected<std::unique_ptr<Connection>> connect_tcp(
    const std::string& host, std::uint16_t port);

/// In-process pipe: two connected endpoints backed by bounded buffers.
/// Writes block when the buffer is full (transport-level backpressure),
/// reads block until data or close. No file descriptors, fully
/// deterministic scheduling apart — the equivalence ctest runs on this.
struct PipePair {
    std::unique_ptr<Connection> client;
    std::unique_ptr<Connection> server;
};
[[nodiscard]] PipePair make_pipe(std::size_t capacity = 1 << 16);

}  // namespace arpsec::serve
