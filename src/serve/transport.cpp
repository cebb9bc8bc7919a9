#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace arpsec::serve {

namespace {

std::string errno_string(const std::string& what) {
    return what + ": " + std::strerror(errno);
}

/// Waits for readability with poll(); returns 0 on ready, 1 on timeout,
/// -1 on error. Interrupted waits retry.
int wait_readable(int fd, int timeout_ms) {
    for (;;) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLIN;
        const int r = ::poll(&pfd, 1, timeout_ms);
        if (r > 0) return 0;
        if (r == 0) return 1;
        if (errno == EINTR) continue;
        return -1;
    }
}

}  // namespace

Connection::~Connection() { ::close(fd_); }

IoResult Connection::read_some(std::span<std::uint8_t> buf, int timeout_ms) {
    IoResult res;
    if (timeout_ms >= 0) {
        const int w = wait_readable(fd_, timeout_ms);
        if (w == 1) {
            res.kind = IoResult::Kind::kTimeout;
            return res;
        }
        if (w < 0) {
            res.kind = IoResult::Kind::kError;
            res.error = errno_string("poll");
            return res;
        }
    }
    for (;;) {
        const ssize_t n = ::read(fd_, buf.data(), buf.size());
        if (n > 0) {
            res.kind = IoResult::Kind::kData;
            res.bytes = static_cast<std::size_t>(n);
            return res;
        }
        if (n == 0) {
            res.kind = IoResult::Kind::kEof;
            return res;
        }
        if (errno == EINTR) continue;
        res.kind = IoResult::Kind::kError;
        res.error = errno_string("read");
        return res;
    }
}

bool Connection::write_all(std::span<const std::uint8_t> data) {
    std::size_t off = 0;
    while (off < data.size()) {
        // MSG_NOSIGNAL: a vanished peer fails the write, not the process.
        const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

void Connection::close() { ::shutdown(fd_, SHUT_RDWR); }

Listener::Listener(int fd, std::string address, std::string unlink_path)
    : fd_(fd), address_(std::move(address)), unlink_path_(std::move(unlink_path)) {}

Listener::~Listener() { close(); }

common::Expected<std::unique_ptr<Connection>> Listener::accept(int timeout_ms) {
    using Result = common::Expected<std::unique_ptr<Connection>>;
    if (fd_ < 0) return Result::failure("listener closed");
    const int w = wait_readable(fd_, timeout_ms);
    if (w == 1) return Result::failure("accept: timed out");
    if (w < 0) return Result::failure(errno_string("poll"));
    for (;;) {
        const int client = ::accept(fd_, nullptr, nullptr);
        if (client >= 0) return Result{std::make_unique<Connection>(client)};
        if (errno == EINTR) continue;
        return Result::failure(errno_string("accept"));
    }
}

void Listener::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
    }
}

common::Expected<std::unique_ptr<Listener>> listen_unix(const std::string& path) {
    using Result = common::Expected<std::unique_ptr<Listener>>;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        return Result::failure("unix socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Result::failure(errno_string("socket"));
    ::unlink(path.c_str());  // stale socket from a previous run
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string err = errno_string("bind " + path);
        ::close(fd);
        return Result::failure(err);
    }
    if (::listen(fd, 8) != 0) {
        const std::string err = errno_string("listen");
        ::close(fd);
        return Result::failure(err);
    }
    return Result{std::make_unique<Listener>(fd, "unix:" + path, path)};
}

common::Expected<std::unique_ptr<Listener>> listen_tcp(std::uint16_t port) {
    using Result = common::Expected<std::unique_ptr<Listener>>;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Result::failure(errno_string("socket"));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string err = errno_string("bind");
        ::close(fd);
        return Result::failure(err);
    }
    if (::listen(fd, 8) != 0) {
        const std::string err = errno_string("listen");
        ::close(fd);
        return Result::failure(err);
    }
    // Recover the kernel-assigned port when the caller passed 0.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    return Result{std::make_unique<Listener>(
        fd, "tcp:127.0.0.1:" + std::to_string(ntohs(bound.sin_port)), "")};
}

common::Expected<std::unique_ptr<Connection>> connect_unix(const std::string& path) {
    using Result = common::Expected<std::unique_ptr<Connection>>;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        return Result::failure("unix socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Result::failure(errno_string("socket"));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string err = errno_string("connect " + path);
        ::close(fd);
        return Result::failure(err);
    }
    return Result{std::make_unique<Connection>(fd)};
}

common::Expected<std::unique_ptr<Connection>> connect_tcp(const std::string& host,
                                                          std::uint16_t port) {
    using Result = common::Expected<std::unique_ptr<Connection>>;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        return Result::failure("connect: '" + host + "' is not a dotted-quad IPv4 address");
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Result::failure(errno_string("socket"));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string err = errno_string("connect " + host + ":" + std::to_string(port));
        ::close(fd);
        return Result::failure(err);
    }
    return Result{std::make_unique<Connection>(fd)};
}

common::Expected<PipePair> make_pipe() {
    using Result = common::Expected<PipePair>;
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        return Result::failure(errno_string("socketpair"));
    }
    PipePair pair;
    pair.client = std::make_unique<Connection>(fds[0]);
    pair.server = std::make_unique<Connection>(fds[1]);
    return Result{std::move(pair)};
}

}  // namespace arpsec::serve
