// arpsec-loadgen — streams a labeled pcap trace at an arpsec-served daemon
// over the `arpsec.stream.v1` protocol and reports what came back.
//
//   $ arpsec-loadgen --pcap t.pcap --unix /tmp/arpsec.sock
//   $ arpsec-loadgen --pcap t.pcap --tcp 127.0.0.1:9099 --count 10000
//   $ arpsec-loadgen --pcap t.pcap --unix s.sock --skip 10000 --repeat 5
//
// The HELLO record carries the trace's seed and the DIRECTORY record its
// (IP, MAC) ground-truth bindings, so the daemon's shards deploy their
// schemes exactly as arpsec-replay would offline. --skip/--count slice the
// trace (the snapshot/resume smoke streams the first half, then the rest);
// --no-end closes without an END record, which the server treats as an
// abandoned stream and freezes state without the grace window. Alerts are
// read on a second role while frames are written.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/args.hpp"
#include "common/version.hpp"
#include "exp/executor.hpp"
#include "replay/source.hpp"
#include "serve/transport.hpp"
#include "wire/stream_codec.hpp"

namespace {

int usage(const char* argv0, const std::string& error = {}) {
    if (!error.empty()) std::fprintf(stderr, "arpsec-loadgen: %s\n", error.c_str());
    std::fprintf(
        stderr,
        "usage: %s --pcap PATH (--unix PATH | --tcp HOST:PORT) [--labels PATH]\n"
        "          [--skip N] [--count N] [--repeat R] [--batch-frames B] [--no-end]\n"
        "  --pcap PATH       trace to stream (classic pcap)\n"
        "  --labels PATH     ground-truth sidecar (default: <pcap>.labels.json)\n"
        "  --unix PATH       connect to a Unix-domain socket daemon\n"
        "  --tcp HOST:PORT   connect to a TCP daemon (PORT 1-65535)\n"
        "  --skip N          skip the first N trace frames, >= 0 (default 0)\n"
        "  --count N         stream at most N frames, >= 0 (default: all remaining)\n"
        "  --repeat R        stream the slice R times, >= 1, advancing timestamps\n"
        "                    by the trace span each lap (throughput soak)\n"
        "  --batch-frames B  frames encoded per socket write, >= 1 (default 256)\n"
        "  --no-end          close without an END record (abandoned-stream /\n"
        "                    snapshot-freeze path)\n"
        "  --version         print the build's git describe string\n",
        argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string pcap_path;
    std::string labels_path;
    std::string unix_path;
    std::string tcp_target;
    std::size_t skip = 0;
    std::size_t count = SIZE_MAX;
    std::size_t repeat = 1;
    std::size_t batch_frames = 256;
    bool send_end = true;

    arpsec::common::ArgReader args{argc, argv};
    while (args.next()) {
        if (args.is("--pcap")) {
            args.value(pcap_path);
        } else if (args.is("--labels")) {
            args.value(labels_path);
        } else if (args.is("--unix")) {
            args.value(unix_path);
        } else if (args.is("--tcp")) {
            args.value(tcp_target);
        } else if (args.is("--skip")) {
            args.number(skip);
        } else if (args.is("--count")) {
            args.number(count);
        } else if (args.is("--repeat")) {
            args.number(repeat, 1);
        } else if (args.is("--batch-frames")) {
            args.number(batch_frames, 1);
        } else if (args.is("--no-end")) {
            send_end = false;
        } else if (args.is("--version")) {
            std::puts(arpsec::common::tool_version_line("loadgen").c_str());
            return 0;
        } else {
            args.reject();
        }
    }
    if (!args.ok()) return usage(argv[0], args.error());
    if (pcap_path.empty() || unix_path.empty() == tcp_target.empty()) return usage(argv[0]);
    // --tcp HOST:PORT splits at the last colon; a target without a port fails.
    const std::size_t colon = tcp_target.rfind(':');
    std::optional<std::uint16_t> tcp_port;
    if (colon != std::string::npos) {
        tcp_port = arpsec::common::parse_number<std::uint16_t>(
            std::string_view{tcp_target}.substr(colon + 1), 1, 65535);
    }
    if (!tcp_target.empty() && !tcp_port) {
        return usage(argv[0], "bad value '" + tcp_target + "' for --tcp");
    }
    if (labels_path.empty()) labels_path = pcap_path + ".labels.json";

    arpsec::replay::PcapFileSource source{pcap_path, labels_path};
    auto trace = source.load();
    if (!trace.ok()) {
        std::fprintf(stderr, "arpsec-loadgen: %s\n", trace.error().c_str());
        return 2;
    }
    const auto& frames = trace.value().frames;
    const std::size_t begin = skip < frames.size() ? skip : frames.size();
    const std::size_t end =
        count < frames.size() - begin ? begin + count : frames.size();

    auto conn = unix_path.empty()
                    ? arpsec::serve::connect_tcp(tcp_target.substr(0, colon), *tcp_port)
                    : arpsec::serve::connect_unix(unix_path);
    if (!conn.ok()) {
        std::fprintf(stderr, "arpsec-loadgen: %s\n", conn.error().c_str());
        return 2;
    }
    arpsec::serve::Connection& c = *conn.value();

    const auto send = [&](const arpsec::wire::Bytes& data) {
        return c.write_all(std::span<const std::uint8_t>{data.data(), data.size()});
    };

    // HELLO + DIRECTORY first, so the daemon deploys shards with the same
    // seed and bindings the offline replay engine would use.
    arpsec::wire::Bytes out;
    arpsec::wire::StreamHello hello;
    hello.seed = trace.value().seed == 0 ? 1 : trace.value().seed;
    arpsec::wire::encode_hello(out, hello);
    if (!trace.value().directory.empty()) {
        std::vector<arpsec::wire::StreamHostEntry> entries;
        entries.reserve(trace.value().directory.size());
        for (const auto& host : trace.value().directory) {
            entries.push_back({host.name, host.ip, host.mac});
        }
        arpsec::wire::encode_directory(out, entries);
    }
    if (!send(out)) {
        std::fprintf(stderr, "arpsec-loadgen: daemon closed during handshake\n");
        return 1;
    }

    // The writer role. Laps beyond the first shift timestamps by the trace
    // span so virtual time stays monotonic through a soak.
    std::uint64_t sent = 0;
    std::string write_error;
    const auto write_stream = [&] {
        const std::int64_t span =
            frames.empty() ? 0 : trace.value().last_at().nanos() + 1'000'000;
        for (std::size_t lap = 0; lap < repeat; ++lap) {
            const std::uint64_t shift =
                static_cast<std::uint64_t>(span) * static_cast<std::uint64_t>(lap);
            std::size_t i = begin;
            while (i < end) {
                out.clear();
                const std::size_t stop = i + batch_frames < end ? i + batch_frames : end;
                for (; i < stop; ++i) {
                    arpsec::wire::encode_frame(
                        out, static_cast<std::uint64_t>(frames[i].at.nanos()) + shift,
                        std::span<const std::uint8_t>{frames[i].bytes.data(),
                                                      frames[i].bytes.size()});
                    ++sent;
                }
                if (!send(out)) {
                    write_error = "daemon closed after " + std::to_string(sent) + " frames";
                    return;
                }
            }
        }
        if (!send_end) {
            c.close();  // also ends the reader role
            return;
        }
        out.clear();
        arpsec::wire::encode_end(out);
        if (!send(out)) write_error = "daemon closed before END";
    };

    // The reader role runs while frames stream out: the daemon's workers
    // write kAlert records as they go, and an unread alert stream stalls
    // them. Reads until the final kSummary (printed for scripts to parse).
    std::uint64_t alerts = 0;
    bool got_summary = false;
    std::string read_error;
    const auto read_stream = [&] {
        arpsec::wire::StreamDecoder decoder;
        std::vector<std::uint8_t> rbuf(1 << 16);
        arpsec::wire::StreamRecord rec;
        while (!got_summary) {
            const auto io = c.read_some(std::span<std::uint8_t>{rbuf}, -1);
            if (io.kind != arpsec::serve::IoResult::Kind::kData) return;
            decoder.feed(std::span<const std::uint8_t>{rbuf.data(), io.bytes});
            for (;;) {
                const auto st = decoder.poll(rec);
                if (st == arpsec::wire::StreamDecoder::Status::kNeedMore) break;
                if (st == arpsec::wire::StreamDecoder::Status::kFatal) {
                    read_error = decoder.last_error();
                    return;
                }
                if (st != arpsec::wire::StreamDecoder::Status::kRecord) continue;
                if (rec.type == arpsec::wire::StreamRecordType::kAlert) ++alerts;
                if (rec.type == arpsec::wire::StreamRecordType::kSummary) {
                    std::printf("%s\n", rec.text.c_str());
                    got_summary = true;
                }
            }
        }
    };

    const std::string peer = arpsec::exp::run_pair(read_stream, write_stream);
    for (const std::string& error : {write_error, read_error, peer}) {
        if (error.empty()) continue;
        std::fprintf(stderr, "arpsec-loadgen: %s\n", error.c_str());
        return 1;
    }
    if (!send_end) {
        std::printf("loadgen: streamed %llu frames, closed without END\n",
                    static_cast<unsigned long long>(sent));
        return 0;
    }
    std::fprintf(stderr, "loadgen: streamed %llu frames, received %llu alert records\n",
                 static_cast<unsigned long long>(sent),
                 static_cast<unsigned long long>(alerts));
    if (!got_summary) {
        std::fprintf(stderr, "arpsec-loadgen: no summary received\n");
        return 1;
    }
    return 0;
}
