// serve-saturate and serve-paced: the seeded trace streamed over a Unix
// socket into an in-process serve::Server (2 shards, the four
// monitor-vantage schemes, live alert streaming). One client connection
// writes frames while a second role reads the alert stream back, so the
// server can never block on a client that is not reading. Each repetition
// streams the whole trace once through a fresh server.
//
// serve-saturate is a closed loop: the writer sends as fast as backpressure
// allows. serve-paced is an open loop: 1 ms ticks at a fixed offered rate,
// each alert timed from the due time of the frame that triggered it.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "detect/registry.hpp"
#include "exp/executor.hpp"
#include "replay/engine.hpp"
#include "replay/score.hpp"
#include "replay/session.hpp"
#include "replay/source.hpp"
#include "serve/alert_stream.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "serve/transport.hpp"
#include "wire/frame.hpp"
#include "wire/stream_codec.hpp"

namespace arpsec::bench {

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 1024;
constexpr std::int64_t kTickNs = 1'000'000;
constexpr int kReadTimeoutMs = 100;
/// Upper bound on one repetition; a run that exceeds it is a failure, not
/// a hang.
constexpr std::int64_t kRepDeadlineNs = 120'000'000'000;

std::uint64_t coerce_seed(std::uint64_t seed) { return seed == 0 ? 1 : seed; }

/// The frames one repetition streams: the first `count` frames of the
/// trace — all of them, or none for the zero-frame session setup_s times.
struct Stream {
    const replay::LabeledTrace* trace = nullptr;
    std::size_t count = 0;
    /// Running maximum of the streamed timestamps, for reaching().
    std::vector<std::int64_t> reach;

    Stream(const replay::LabeledTrace& t, std::size_t frames) : trace(&t), count(frames) {
        std::int64_t m = 0;
        reach.reserve(count);
        for (std::size_t g = 0; g < count; ++g) {
            m = std::max(m, t.frames[g].at.nanos());
            reach.push_back(m);
        }
    }

    [[nodiscard]] std::size_t total() const { return count; }
    [[nodiscard]] const replay::TraceFrame& frame(std::size_t g) const {
        return trace->frames[g];
    }
    [[nodiscard]] std::int64_t at(std::size_t g) const { return frame(g).at.nanos(); }

    /// Index of the first streamed frame whose timestamp reaches `at_ns`
    /// (the frame whose clock advance raised the alert); total() when the
    /// alert came from the post-END grace window.
    [[nodiscard]] std::size_t reaching(std::int64_t at_ns) const {
        return static_cast<std::size_t>(std::lower_bound(reach.begin(), reach.end(), at_ns) -
                                        reach.begin());
    }

    [[nodiscard]] std::vector<common::SimTime> attack_times() const {
        std::vector<common::SimTime> out;
        for (std::size_t g = 0; g < total(); ++g) {
            if (frame(g).attack) out.push_back(common::SimTime{at(g)});
        }
        return out;
    }
};

struct Received {
    std::int64_t recv_ns = 0;
    std::int64_t at_ns = 0;
    std::size_t scheme = 0;
};

/// Everything the two client roles observed in one repetition. The writer
/// owns the first block and the reader the second; main reads both after
/// the roles are joined.
struct ClientLog {
    std::vector<std::int64_t> batch_start;  // closed loop: encode start per batch
    std::vector<double> lateness_ms;         // open loop: send start - due, per tick
    std::int64_t paced_start = 0;            // open loop: due time of tick 0
    std::int64_t first_send = 0;
    std::int64_t last_send = 0;
    std::int64_t write_ns = 0;
    bool write_failed = false;

    std::vector<Received> alerts;
    AlertDigest digest;
    std::uint64_t bad_alerts = 0;
    bool got_summary = false;
    std::int64_t summary_ns = 0;
    std::string reader_error;
};

/// `{"at_ns":N,"scheme":"S",...` — the fixed head of serve::alert_line.
bool parse_alert_head(std::string_view line, std::int64_t& at_ns, std::string_view& scheme) {
    constexpr std::string_view kAt = "{\"at_ns\":";
    constexpr std::string_view kScheme = ",\"scheme\":\"";
    if (line.substr(0, kAt.size()) != kAt) return false;
    const char* first = line.data() + kAt.size();
    const char* last = line.data() + line.size();
    const auto [ptr, ec] = std::from_chars(first, last, at_ns);
    if (ec != std::errc{}) return false;
    const std::string_view rest = line.substr(static_cast<std::size_t>(ptr - line.data()));
    if (rest.substr(0, kScheme.size()) != kScheme) return false;
    const std::string_view name = rest.substr(kScheme.size());
    const std::size_t end = name.find('"');
    if (end == std::string_view::npos) return false;
    scheme = name.substr(0, end);
    return true;
}

void wait_until(std::int64_t due) {
    for (;;) {
        const std::int64_t left = due - now_ns();
        if (left <= 0) return;
        if (left > 2 * kTickNs) {
            exp::sleep_millis(1);
        } else {
            exp::yield_thread();
        }
    }
}

bool send(serve::Connection& conn, const wire::Bytes& bytes) {
    return conn.write_all(std::span<const std::uint8_t>{bytes.data(), bytes.size()});
}

void encode_handshake(wire::Bytes& out, const replay::LabeledTrace& trace) {
    wire::StreamHello hello;
    hello.seed = coerce_seed(trace.seed);
    wire::encode_hello(out, hello);
    std::vector<wire::StreamHostEntry> entries;
    entries.reserve(trace.directory.size());
    for (const detect::HostRecord& host : trace.directory) {
        entries.push_back({host.name, host.ip, host.mac});
    }
    wire::encode_directory(out, entries);
}

/// The writer role. `rate_fps == 0` is the closed loop (1024-frame batches
/// as fast as the transport accepts them); otherwise 1 ms ticks of
/// rate/1000 frames, each sent at its due time regardless of how the
/// server keeps up.
void write_stream(serve::Connection& conn, const Stream& stream, std::size_t rate_fps,
                  ClientLog& log) {
    wire::Bytes out;
    encode_handshake(out, *stream.trace);
    log.first_send = now_ns();
    log.paced_start = log.first_send + kTickNs;
    if (!send(conn, out)) {
        log.write_failed = true;
        return;
    }
    const std::size_t chunk = rate_fps == 0 ? kBatch : std::max<std::size_t>(1, rate_fps / 1000);
    const std::size_t total = stream.total();
    std::size_t g = 0;
    for (std::int64_t tick = 0; g < total; ++tick) {
        if (rate_fps != 0) {
            const std::int64_t due = log.paced_start + tick * kTickNs;
            wait_until(due);
            log.lateness_ms.push_back(static_cast<double>(now_ns() - due) / 1e6);
        } else {
            log.batch_start.push_back(now_ns());
        }
        out.clear();
        const std::size_t end = std::min(g + chunk, total);
        for (; g < end; ++g) {
            const wire::Bytes& bytes = stream.frame(g).bytes;
            wire::encode_frame(out, static_cast<std::uint64_t>(stream.at(g)),
                               std::span<const std::uint8_t>{bytes.data(), bytes.size()});
        }
        const std::int64_t t = now_ns();
        const bool ok = send(conn, out);
        log.write_ns += now_ns() - t;
        if (!ok) {
            log.write_failed = true;
            return;
        }
    }
    log.last_send = now_ns();
    out.clear();
    wire::encode_end(out);
    if (!send(conn, out)) log.write_failed = true;
}

/// The reader role: alert records until the final summary. It never stops
/// reading early on a bad record, so the server can always drain.
void read_stream(serve::Connection& conn, std::int64_t deadline, ClientLog& log) {
    const auto& schemes = monitor_schemes();
    wire::StreamDecoder decoder;
    std::vector<std::uint8_t> buf(1 << 16);
    wire::StreamRecord rec;
    while (!log.got_summary) {
        if (now_ns() > deadline) {
            log.reader_error = "no summary before the repetition deadline";
            return;
        }
        const serve::IoResult io = conn.read_some(std::span<std::uint8_t>{buf}, kReadTimeoutMs);
        if (io.kind == serve::IoResult::Kind::kTimeout) continue;
        if (io.kind != serve::IoResult::Kind::kData) {
            log.reader_error = io.kind == serve::IoResult::Kind::kEof
                                   ? "connection closed before the summary"
                                   : io.error;
            return;
        }
        const std::int64_t t = now_ns();
        decoder.feed(std::span<const std::uint8_t>{buf.data(), io.bytes});
        for (;;) {
            const wire::StreamDecoder::Status st = decoder.poll(rec);
            if (st == wire::StreamDecoder::Status::kNeedMore) break;
            if (st == wire::StreamDecoder::Status::kFatal) {
                log.reader_error = "alert stream framing lost: " + decoder.last_error();
                return;
            }
            if (st == wire::StreamDecoder::Status::kBadRecord) {
                ++log.bad_alerts;
                continue;
            }
            if (rec.type == wire::StreamRecordType::kSummary) {
                log.summary_ns = t;
                log.got_summary = true;
                continue;
            }
            if (rec.type != wire::StreamRecordType::kAlert) continue;
            log.digest.add(rec.text);
            Received r;
            r.recv_ns = t;
            std::string_view scheme;
            if (!parse_alert_head(rec.text, r.at_ns, scheme)) {
                ++log.bad_alerts;
                continue;
            }
            const auto it = std::find(schemes.begin(), schemes.end(), scheme);
            if (it == schemes.end()) {
                ++log.bad_alerts;
                continue;
            }
            r.scheme = static_cast<std::size_t>(it - schemes.begin());
            log.alerts.push_back(r);
        }
    }
}

serve::ServerOptions server_options() {
    serve::ServerOptions o;
    o.schemes = monitor_schemes();
    o.shards = kShards;
    o.stream_alerts = true;
    // ServerOptions defaults to a 5 s grace window while the replay engine
    // (and both CLIs) use 2 s; pinning the engine's value keeps served
    // alerts comparable with the offline reference.
    o.grace = replay::EngineOptions{}.grace;
    o.read_timeout_ms = kReadTimeoutMs;
    o.idle_timeout_ms = 30000;
    return o;
}

/// What the offline reference produced for one stream.
struct Reference {
    AlertDigest digest;
    std::vector<std::uint64_t> per_scheme;
};

/// Feeds the stream through one SchemeSession per scheme, one freshly
/// captured view at a time (no second copy of the stream is held), then
/// runs the engine's grace window: the offline replay the served alerts
/// must equal.
Reference offline_reference(const Stream& stream, const detect::Registry& registry) {
    const auto& schemes = monitor_schemes();
    Reference ref;
    ref.per_scheme.assign(schemes.size(), 0);
    replay::SessionOptions so;
    so.seed = coerce_seed(stream.trace->seed);
    so.directory = stream.trace->directory;
    std::vector<std::unique_ptr<replay::SchemeSession>> sessions;
    for (std::size_t k = 0; k < schemes.size(); ++k) {
        sessions.push_back(
            std::make_unique<replay::SchemeSession>(registry.make(schemes[k]), so));
        sessions.back()->alerts().on_alert = [&ref, k](const detect::Alert& a) {
            ref.digest.add(serve::alert_line(a));
            ++ref.per_scheme[k];
        };
    }
    for (std::size_t g = 0; g < stream.total(); ++g) {
        const wire::Bytes& bytes = stream.frame(g).bytes;
        wire::FrameView view{wire::FrameBuffer::capture(std::span<const std::uint8_t>(bytes))};
        view.prime();
        const common::SimTime at{stream.at(g)};
        for (auto& s : sessions) (void)s->feed(at, view);
        if (g % kBatch == kBatch - 1) {
            for (auto& s : sessions) s->alerts().clear();
        }
    }
    for (auto& s : sessions) s->finish(replay::EngineOptions{}.grace);
    return ref;
}

/// One served repetition and what it measured.
struct RepResult {
    bool ok = false;
    std::string error;
    double wall_s = 0.0;
    std::uint64_t frames_processed = 0;
    ClientLog log;
    std::uint64_t records = 0;
    std::uint64_t bad_records = 0;
    std::uint64_t backpressure_waits = 0;
    std::uint64_t dropped = 0;
    double queue_depth_max = 0.0;
    double hop_le_10us_pct = 0.0;
    double hop_le_1ms_pct = 0.0;
    double shard_skew = 0.0;
};

RepResult serve_once(const Options& options, const Stream& stream, std::size_t rate_fps,
                     const detect::Registry& registry) {
    RepResult rep;
    const std::string path = options.work_dir + "/serve.sock";
    const std::int64_t start = now_ns();
    auto server = serve::Server::create(registry, server_options());
    auto listener = serve::listen_unix(path);
    if (!server.ok() || !listener.ok()) {
        rep.error = server.ok() ? listener.error() : server.error();
        return rep;
    }
    std::optional<common::Expected<serve::ServeOutcome>> served;
    const std::int64_t deadline = start + kRepDeadlineNs;
    ClientLog& log = rep.log;
    std::string client_error;
    const std::string server_error = exp::run_pair(
        [&] {
            auto conn = listener.value()->accept(10000);
            if (!conn.ok()) throw std::runtime_error(conn.error());
            served = server.value()->serve(*conn.value());
            conn.value()->close();
        },
        [&] {
            auto conn = serve::connect_unix(path);
            if (!conn.ok()) {
                client_error = conn.error();
                return;
            }
            client_error = exp::run_pair(
                [&] { read_stream(*conn.value(), deadline, log); },
                [&] { write_stream(*conn.value(), stream, rate_fps, log); });
        });
    listener.value()->close();
    rep.wall_s = static_cast<double>(log.summary_ns - log.first_send) / 1e9;

    if (!server_error.empty()) {
        rep.error = "server: " + server_error;
    } else if (!served.has_value()) {
        rep.error = "serve: no outcome";
    } else if (!served->ok()) {
        rep.error = "serve: " + served->error();
    } else if (!client_error.empty()) {
        rep.error = "client: " + client_error;
    } else if (log.write_failed) {
        rep.error = "client: write failed";
    } else if (!log.reader_error.empty()) {
        rep.error = "client: " + log.reader_error;
    }
    if (!rep.error.empty()) return rep;

    const serve::ServeOutcome& outcome = served->value();
    if (!outcome.transport_error.empty()) {
        rep.error = "transport: " + outcome.transport_error;
        return rep;
    }
    if (!outcome.ended_by_end_record) {
        rep.error = "stream did not end with END";
        return rep;
    }
    if (const telemetry::Json* f = outcome.summary.find("frames"); f != nullptr) {
        rep.frames_processed = static_cast<std::uint64_t>(f->as_int());
    }

    telemetry::MetricsRegistry& m = server.value()->metrics();
    rep.records = m.counter("serve.intake.records").value();
    rep.bad_records = m.counter("serve.intake.bad_records").value();
    rep.backpressure_waits = m.counter("serve.intake.backpressure_waits").value();
    rep.dropped = m.counter("serve.intake.dropped_frames").value();
    for (std::size_t s = 0; s < kShards; ++s) {
        if (const telemetry::Gauge* depth =
                m.find_gauge("serve.shard." + std::to_string(s) + ".queue_depth")) {
            rep.queue_depth_max =
                std::max(rep.queue_depth_max, static_cast<double>(depth->high_water()));
        }
    }
    if (const telemetry::Histogram* hop = m.find_histogram("serve.shard.drain_latency_seconds");
        hop != nullptr && hop->count() > 0) {
        std::uint64_t le_10us = 0;
        std::uint64_t le_1ms = 0;
        for (std::size_t b = 0; b < hop->bounds().size(); ++b) {
            if (hop->bounds()[b] <= 1e-5) le_10us += hop->bucket_counts()[b];
            if (hop->bounds()[b] <= 1e-3) le_1ms += hop->bucket_counts()[b];
        }
        const auto count = static_cast<double>(hop->count());
        rep.hop_le_10us_pct = 100.0 * static_cast<double>(le_10us) / count;
        rep.hop_le_1ms_pct = 100.0 * static_cast<double>(le_1ms) / count;
    }
    if (const telemetry::Json* per = outcome.summary.find("per_shard");
        per != nullptr && per->is_array() && per->size() > 0) {
        double max = 0.0;
        double sum = 0.0;
        for (const telemetry::Json& row : per->as_array()) {
            const double f = row.find("frames") != nullptr ? row.find("frames")->as_double() : 0;
            max = std::max(max, f);
            sum += f;
        }
        rep.shard_skew = sum > 0.0 ? max / (sum / static_cast<double>(per->size())) : 0.0;
    }
    rep.ok = true;
    return rep;
}

/// Alert latencies of every timed repetition in 1 µs buckets up to 1 s, so
/// the run's percentiles pool all samples with memory that does not grow
/// with the number of repetitions. Pooling matters on serve-paced: the
/// per-repetition p50 moved between 0.91 and 1.05 ms within one run.
class LatencyHistogram {
public:
    void add(double ms) {
        const double us = std::max(0.0, ms * 1e3);
        ++buckets_[std::min(static_cast<std::size_t>(us), buckets_.size() - 1)];
        ++count_;
    }

    [[nodiscard]] std::uint64_t count() const { return count_; }

    /// Nearest-rank percentile (p in [0, 100]) in ms, at bucket midpoints.
    [[nodiscard]] double percentile(double p) const {
        const auto rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < buckets_.size(); ++b) {
            seen += buckets_[b];
            if (seen >= rank) return (static_cast<double>(b) + 0.5) / 1e3;
        }
        return 0.0;
    }

private:
    std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(1'000'000, 0);
    std::uint64_t count_ = 0;
};

/// Due time of streamed frame `g`: the encode start of its batch (closed
/// loop) or its tick's scheduled send time (open loop).
std::int64_t due_ns(const ClientLog& log, std::size_t g, std::size_t rate_fps) {
    if (rate_fps == 0) return log.batch_start[std::min(g / kBatch, log.batch_start.size() - 1)];
    const std::size_t tick = g / std::max<std::size_t>(1, rate_fps / 1000);
    return log.paced_start + static_cast<std::int64_t>(tick) * kTickNs;
}

Quality served_quality(const Stream& stream, const ClientLog& log,
                       const replay::EngineOptions& engine) {
    const auto& schemes = monitor_schemes();
    std::vector<std::vector<detect::Alert>> per(schemes.size());
    for (const Received& r : log.alerts) {
        detect::Alert a;
        a.at = common::SimTime{r.at_ns};
        per[r.scheme].push_back(std::move(a));
    }
    const std::vector<common::SimTime> attacks = stream.attack_times();
    Quality q;
    for (const auto& alerts : per) {
        const replay::MatchCounts m = replay::match_alerts(attacks, alerts, engine.match_window);
        q.precision += alerts.empty() ? 1.0
                                      : static_cast<double>(m.true_positive_alerts) /
                                            static_cast<double>(alerts.size());
        q.recall += attacks.empty() ? 1.0
                                    : static_cast<double>(m.detected_attacks) /
                                          static_cast<double>(attacks.size());
    }
    const auto k = static_cast<double>(schemes.size());
    return {q.precision / k, q.recall / k};
}

/// The traced pass: the server's per-frame public calls, run on one thread
/// over the identical encoded byte stream — encode, stream decode, capture,
/// prime, shard routing, per-shard session advance + scheme feed, and the
/// alert encode the drain thread performs.
void traced_pass(const Options& options, const Stream& stream, const detect::Registry& registry,
                 const Reference& reference, double untraced_fps, Result& result) {
    const auto& schemes = monitor_schemes();
    Ledger ledger;
    ledger.set_repetition(1);
    wire::reset_frameview_stats();
    const std::int64_t start = now_ns();
    const Ledger::Id rep = ledger.open("serve-pass", Ledger::kRoot);

    replay::SessionOptions so;
    so.seed = coerce_seed(stream.trace->seed);
    so.directory = stream.trace->directory;
    std::vector<detect::Alert> pending;
    std::vector<std::vector<std::unique_ptr<replay::SchemeSession>>> shards(kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
        for (const std::string& name : schemes) {
            const std::int64_t t = now_ns();
            shards[s].push_back(
                std::make_unique<replay::SchemeSession>(registry.make(name), so));
            shards[s].back()->alerts().on_alert = [&pending](const detect::Alert& a) {
                pending.push_back(a);
            };
            ledger.layer("replay.session.deploy", t, now_ns() - t, rep, 1);
        }
    }

    AlertDigest digest;
    std::size_t alert_count = 0;
    wire::Bytes alert_bytes;
    std::vector<std::string> lines;
    const auto encode_alerts = [&](Ledger::Id parent) {
        std::int64_t t = now_ns();
        for (const detect::Alert& a : pending) {
            lines.push_back(serve::alert_line(a));
            wire::encode_alert(alert_bytes, lines.back());
        }
        ledger.layer("serve.alert_encode", t, now_ns() - t, parent, pending.size());
        t = now_ns();
        for (const std::string& line : lines) digest.add(line);
        ledger.layer("bench.digest", t, now_ns() - t, parent, lines.size());
        alert_count += pending.size();
        pending.clear();
        lines.clear();
        alert_bytes.clear();
    };

    wire::Bytes out;
    wire::StreamDecoder decoder;
    wire::StreamRecord rec;
    std::vector<wire::FrameView> views;
    std::vector<std::int64_t> ats;
    std::vector<std::size_t> route;
    std::uint64_t decode_errors = 0;
    encode_handshake(out, *stream.trace);
    decoder.feed(std::span<const std::uint8_t>{out.data(), out.size()});
    while (decoder.poll(rec) != wire::StreamDecoder::Status::kNeedMore) {
    }

    const std::size_t total = stream.total();
    for (std::size_t b = 0; b < total; b += kBatch) {
        const std::size_t end = std::min(b + kBatch, total);
        const std::size_t count = end - b;
        const Ledger::Id batch = ledger.open("batch", rep);
        std::int64_t t = now_ns();
        out.clear();
        for (std::size_t g = b; g < end; ++g) {
            const wire::Bytes& bytes = stream.frame(g).bytes;
            wire::encode_frame(out, static_cast<std::uint64_t>(stream.at(g)),
                               std::span<const std::uint8_t>{bytes.data(), bytes.size()});
        }
        ledger.layer("loadgen.encode", t, now_ns() - t, batch, count);

        t = now_ns();
        std::vector<wire::Bytes> frames;
        frames.reserve(count);
        ats.clear();
        decoder.feed(std::span<const std::uint8_t>{out.data(), out.size()});
        for (;;) {
            const wire::StreamDecoder::Status st = decoder.poll(rec);
            if (st == wire::StreamDecoder::Status::kNeedMore) break;
            if (st != wire::StreamDecoder::Status::kRecord ||
                rec.type != wire::StreamRecordType::kFrame) {
                ++decode_errors;
                if (st == wire::StreamDecoder::Status::kFatal) break;
                continue;
            }
            ats.push_back(static_cast<std::int64_t>(rec.frame.at_nanos));
            frames.push_back(std::move(rec.frame.bytes));
        }
        ledger.layer("wire.stream_decode", t, now_ns() - t, batch, count);

        t = now_ns();
        views.clear();
        for (wire::Bytes& bytes : frames) {
            views.emplace_back(wire::FrameBuffer::capture(std::move(bytes)));
        }
        ledger.layer("wire.capture", t, now_ns() - t, batch, count);
        t = now_ns();
        for (const wire::FrameView& v : views) v.prime();
        ledger.layer("wire.prime", t, now_ns() - t, batch, count);
        t = now_ns();
        route.clear();
        for (const wire::FrameView& v : views) route.push_back(serve::shard_of(v, kShards));
        ledger.layer("serve.route", t, now_ns() - t, batch, count);

        for (std::size_t s = 0; s < kShards; ++s) {
            for (std::size_t k = 0; k < schemes.size(); ++k) {
                replay::SchemeSession& session = *shards[s][k];
                std::int64_t advance = 0;
                std::int64_t feed = 0;
                std::uint64_t fed = 0;
                const std::int64_t batch_start = now_ns();
                std::int64_t t0 = batch_start;
                for (std::size_t i = 0; i < views.size(); ++i) {
                    if (route[i] != s) continue;
                    const common::SimTime at{ats[i]};
                    session.advance_to(at);
                    const std::int64_t t1 = now_ns();
                    (void)session.feed(at, views[i]);
                    const std::int64_t t2 = now_ns();
                    advance += t1 - t0;
                    feed += t2 - t1;
                    t0 = t2;
                    ++fed;
                }
                ledger.layer("replay.session.advance", batch_start, advance, batch, fed);
                ledger.layer("detect." + schemes[k], batch_start + advance, feed, batch, fed);
            }
        }
        encode_alerts(batch);
        ledger.close(batch);
    }
    out.clear();
    wire::encode_end(out);
    decoder.feed(std::span<const std::uint8_t>{out.data(), out.size()});
    while (decoder.poll(rec) != wire::StreamDecoder::Status::kNeedMore) {
    }
    const std::int64_t t = now_ns();
    for (auto& shard : shards) {
        for (auto& session : shard) session->finish(replay::EngineOptions{}.grace);
    }
    ledger.layer("replay.session.finish", t, now_ns() - t, rep, kShards * schemes.size());
    encode_alerts(rep);
    ledger.close(rep);
    const double wall_ns = static_cast<double>(now_ns() - start);
    const wire::FrameViewStats fv = wire::frameview_stats();
    if (!ledger.write(options.trace_path)) {
        result.fail(1, "cannot write trace " + options.trace_path);
    }
    if (decode_errors != 0) result.fail(decode_errors, "traced: stream decode errors");
    if (digest != reference.digest) {
        result.fail(1, "traced: single-threaded alerts " + digest.to_string() +
                           " differ from the offline reference " +
                           reference.digest.to_string());
    }

    const auto n = static_cast<double>(total);
    const auto per_frame = [&](const std::string& layer) {
        return static_cast<double>(ledger.self_ns(layer)) / n;
    };
    const double intake = per_frame("wire.stream_decode") + per_frame("wire.capture") +
                          per_frame("wire.prime") + per_frame("serve.route");
    double worker = per_frame("replay.session.advance");
    for (const std::string& name : schemes) {
        result.layer("detect." + name + ".ns_per_frame", "ns/frame", per_frame("detect." + name));
        worker += per_frame("detect." + name);
    }
    result.layer("loadgen.encode.ns_per_frame", "ns/frame", per_frame("loadgen.encode"));
    result.layer("wire.stream_decode.ns_per_frame", "ns/frame", per_frame("wire.stream_decode"));
    result.layer("wire.capture.ns_per_frame", "ns/frame", per_frame("wire.capture"));
    result.layer("wire.prime.ns_per_frame", "ns/frame", per_frame("wire.prime"));
    result.layer("wire.frameview.hit_ratio", "ratio",
                 static_cast<double>(fv.parse_hits) /
                     static_cast<double>(std::max<std::uint64_t>(1, fv.parse_hits +
                                                                        fv.parse_misses)));
    result.layer("serve.route.ns_per_frame", "ns/frame", per_frame("serve.route"));
    result.layer("replay.session.advance.ns_per_frame", "ns/frame",
                 per_frame("replay.session.advance"));
    result.layer("replay.session.deploy_ms", "ms",
                 static_cast<double>(ledger.self_ns("replay.session.deploy")) / 1e6);
    result.layer("replay.session.finish_ms", "ms",
                 static_cast<double>(ledger.self_ns("replay.session.finish")) / 1e6);
    result.layer("serve.alert_encode.ns_per_alert", "ns/alert",
                 static_cast<double>(ledger.self_ns("serve.alert_encode")) /
                     static_cast<double>(std::max<std::size_t>(1, alert_count)));
    result.layer("serve.ledger.intake_ns_per_frame", "ns/frame", intake);
    result.layer("serve.ledger.worker_ns_per_frame", "ns/frame", worker);
    result.layer("serve.ledger.unattributed_ns_per_frame", "ns/frame",
                 1e9 / untraced_fps - std::max(intake, worker));
    result.layer("trace.residual_pct", "%",
                 100.0 * (1.0 - static_cast<double>(ledger.total_self_ns()) / wall_ns));
    result.layer("trace.overhead_pct", "%", 100.0 * (wall_ns / n * untraced_fps / 1e9 - 1.0));
}

}  // namespace

void run_serve(const Options& options, bool paced, Result& result) {
    const Sizes sizes = sizes_for(options);
    const detect::Registry registry;
    const replay::EngineOptions engine{};
    const std::size_t rate = paced ? sizes.paced_rate_fps : 0;

    auto files = write_seeded_trace(options, sizes.trace_frames,
                                    paced ? "serve-paced" : "serve-saturate");
    if (!files.ok()) {
        result.fail(1, "trace: " + files.error());
        return;
    }
    auto loaded = replay::PcapFileSource{files.value().pcap, files.value().labels}.load();
    if (!loaded.ok()) {
        result.fail(1, "trace: " + loaded.error());
        return;
    }
    const replay::LabeledTrace trace = std::move(loaded).value();
    const Stream stream{trace, trace.frames.size()};
    const Reference reference = offline_reference(stream, registry);

    // Warm-up: one untimed repetition, paced like the timed ones so that it
    // queues no more than they do and the process peak stays theirs.
    if (warmup_seconds(options) > 0.0) {
        const RepResult warm = serve_once(options, stream, rate, registry);
        if (!warm.ok) {
            result.fail(1, "warm-up: " + warm.error);
            return;
        }
    }

    const Stream empty{trace, 0};
    std::string setup_error;
    std::vector<double> setup;
    std::vector<double> throughput;
    std::vector<double> p50;
    LatencyHistogram latency;
    std::vector<double> records, bad, waits, dropped, depth, hop10, hop1ms, skew, blocked,
        lateness, offered;
    std::optional<Quality> quality;
    std::vector<std::uint64_t> served_per_scheme(monitor_schemes().size(), 0);
    RepBudget budget{options.untraced_seconds(), 2};
    const auto total = static_cast<std::uint64_t>(stream.total());
    while (budget.another()) {
        // setup_s: the same served session with zero frames — create the
        // server, connect, HELLO + DIRECTORY + END, build and join the
        // shard workers, receive the summary.
        if (!sample_setup(setup, [&] {
                const RepResult r = serve_once(options, empty, rate, registry);
                setup_error = r.error;
                return r.ok;
            })) {
            result.fail(1, "setup: " + setup_error);
            return;
        }
        trim_heap();
        RepResult r = serve_once(options, stream, rate, registry);
        result.attempted += total;
        if (!r.ok) {
            result.fail(total, r.error);
            break;
        }
        if (r.frames_processed != total) {
            result.fail(total - std::min(total, r.frames_processed),
                        std::to_string(total - r.frames_processed) + " frames not processed");
        }
        if (r.log.digest != reference.digest || r.log.bad_alerts != 0) {
            result.fail(total, "served alerts " + r.log.digest.to_string() +
                                   " differ from the offline reference " +
                                   reference.digest.to_string());
        }
        throughput.push_back(static_cast<double>(total) / r.wall_s);

        std::vector<double> lat;
        lat.reserve(r.log.alerts.size());
        for (const Received& a : r.log.alerts) {
            const std::size_t g = stream.reaching(a.at_ns);
            if (g >= total) continue;  // raised in the post-END grace window
            lat.push_back(static_cast<double>(a.recv_ns - due_ns(r.log, g, rate)) / 1e6);
            latency.add(lat.back());
        }
        std::sort(lat.begin(), lat.end());
        p50.push_back(percentile_sorted(lat, 50));

        if (!quality.has_value()) {
            quality = served_quality(stream, r.log, engine);
            for (const Received& a : r.log.alerts) ++served_per_scheme[a.scheme];
        }
        records.push_back(static_cast<double>(r.records));
        bad.push_back(static_cast<double>(r.bad_records));
        waits.push_back(static_cast<double>(r.backpressure_waits));
        dropped.push_back(static_cast<double>(r.dropped));
        depth.push_back(r.queue_depth_max);
        hop10.push_back(r.hop_le_10us_pct);
        hop1ms.push_back(r.hop_le_1ms_pct);
        skew.push_back(r.shard_skew);
        const double send_ns = static_cast<double>(r.log.last_send - r.log.first_send);
        blocked.push_back(send_ns > 0 ? 100.0 * static_cast<double>(r.log.write_ns) / send_ns
                                      : 0.0);
        offered.push_back(send_ns > 0 ? static_cast<double>(total) * 1e9 / send_ns : 0.0);
        std::vector<double> late = r.log.lateness_ms;
        std::sort(late.begin(), late.end());
        lateness.push_back(percentile_sorted(late, 99));
    }
    result.repetitions = throughput.size();
    if (!quality.has_value()) return;

    result.add("setup_s", "s", setup);
    result.add("peak_rss_mb", "MB", {peak_rss_mb()});
    result.add("throughput_per_s", "1/s", throughput);
    // The pooled p50 is reported; the per-repetition p50s give the quartiles.
    result.add("latency_p50_ms", "ms", latency.percentile(50), p50);
    result.add("quality", "ratio", {quality->f1()});
    result.details["frames_per_repetition"] = total;
    result.details["offline_digest"] = reference.digest.to_string();
    result.details["serve_precision"] = quality->precision;
    result.details["serve_recall"] = quality->recall;

    result.layer("serve.alert_latency_p99_ms", "ms", latency.percentile(99));
    result.layer("serve.alert_latency.samples", "count", static_cast<double>(latency.count()));
    result.layer("serve.intake.records", "count", median(records));
    result.layer("serve.intake.bad_records", "count", median(bad));
    result.layer("serve.intake.backpressure_waits", "count", median(waits));
    result.layer("serve.intake.dropped_frames", "count", median(dropped));
    result.layer("serve.shard.skew", "ratio", median(skew));
    result.layer("serve.queue_depth.max", "frames", median(depth));
    result.layer("serve.ring_hop.le_10us_pct", "%", median(hop10));
    result.layer("serve.ring_hop.le_1ms_pct", "%", median(hop1ms));
    result.layer("transport.write_blocked_pct", "%", median(blocked));
    result.layer("loadgen.lateness_p99_ms", "ms", median(lateness));
    result.layer("loadgen.offered_fps", "1/s", median(offered));
    result.layer("detect.macro_precision", "ratio", quality->precision);
    result.layer("detect.macro_recall", "ratio", quality->recall);
    for (std::size_t k = 0; k < monitor_schemes().size(); ++k) {
        result.layer("detect." + monitor_schemes()[k] + ".alerts", "count",
                     static_cast<double>(served_per_scheme[k]));
    }

    if (options.traced() && result.failed == 0) {
        traced_pass(options, stream, registry, reference, median(throughput), result);
    }
}

}  // namespace arpsec::bench
