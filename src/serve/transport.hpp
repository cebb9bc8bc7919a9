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

/// One bidirectional byte stream carrying `arpsec.stream.v1` records: a
/// connected stream socket. Unix-domain and TCP clients, the connections a
/// Listener accepts and both ends of make_pipe() are all this one class, so
/// tests and benches run the socket code the daemon runs.
///
/// Thread contract: one thread reads while others write (the daemon reads
/// frames on the intake thread while its shard workers write kAlert
/// batches). Concurrent writers must serialize whole writes themselves;
/// the daemon holds one lock per write_all.
class Connection {
public:
    /// Takes ownership of `fd`, a connected stream socket.
    explicit Connection(int fd) : fd_(fd) {}
    /// Releases the descriptor.
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /// Reads up to `buf.size()` bytes. `timeout_ms < 0` blocks
    /// indefinitely; `timeout_ms >= 0` returns kTimeout if nothing arrives
    /// in time (the serve read/idle timeout mechanism).
    [[nodiscard]] IoResult read_some(std::span<std::uint8_t> buf, int timeout_ms);

    /// Writes the whole span (blocking). Returns false when the peer is
    /// gone; a daemon treats that as the client abandoning the stream.
    [[nodiscard]] bool write_all(std::span<const std::uint8_t> data);

    /// Shuts down both directions: a read_some blocked on another thread
    /// returns kEof promptly, later writes on this end fail, and on a
    /// Unix-domain socket so do the peer's. The descriptor stays open until
    /// the destructor, so that reader never sees it reused.
    void close();

private:
    const int fd_;
};

/// Accepts connections for the daemon side of socket transports.
class Listener {
public:
    /// Takes ownership of `fd`, a listening socket. `unlink_path`, when not
    /// empty, is the Unix socket file that close() removes.
    Listener(int fd, std::string address, std::string unlink_path);
    /// Calls close().
    ~Listener();
    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    /// Waits up to `timeout_ms` (<0 = forever) for one client. Fails with
    /// exactly "accept: timed out" when none arrives in time.
    [[nodiscard]] common::Expected<std::unique_ptr<Connection>> accept(int timeout_ms);

    /// Closes the socket (and removes a Unix socket's file); later accepts fail.
    void close();

    /// "unix:<path>" or "tcp:127.0.0.1:<port>", with the port the kernel
    /// bound when listen_tcp was given 0.
    [[nodiscard]] std::string address() const { return address_; }

private:
    int fd_;
    std::string address_;
    std::string unlink_path_;
};

/// Unix-domain stream socket bound at `path` (unlinked first if stale).
[[nodiscard]] common::Expected<std::unique_ptr<Listener>> listen_unix(const std::string& path);
/// TCP listener on 127.0.0.1:`port` (port 0 picks a free port; see address()).
[[nodiscard]] common::Expected<std::unique_ptr<Listener>> listen_tcp(std::uint16_t port);

[[nodiscard]] common::Expected<std::unique_ptr<Connection>> connect_unix(
    const std::string& path);
[[nodiscard]] common::Expected<std::unique_ptr<Connection>> connect_tcp(
    const std::string& host, std::uint16_t port);

/// The two connected ends of one Unix-domain socketpair(2): a stream with
/// no listener and no path. Each direction buffers what the kernel's socket
/// buffer holds (about 200 KiB on common Linux defaults); a writer blocks
/// beyond that until the other end reads.
struct PipePair {
    std::unique_ptr<Connection> client;
    std::unique_ptr<Connection> server;
};
[[nodiscard]] common::Expected<PipePair> make_pipe();

}  // namespace arpsec::serve
