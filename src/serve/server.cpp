#include "serve/server.hpp"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <utility>

#include "common/file.hpp"
#include "exp/executor.hpp"
#include "wire/stream_codec.hpp"

namespace arpsec::serve {

namespace {

/// sim::Network rejects seed 0; coerce it the same way arpsec-replay does.
std::uint64_t coerce_seed(std::uint64_t seed) { return seed == 0 ? 1 : seed; }

}  // namespace

common::Expected<std::unique_ptr<Server>> Server::create(const detect::Registry& registry,
                                                         ServerOptions options) {
    using Result = common::Expected<std::unique_ptr<Server>>;
    if (options.shards == 0) return Result::failure("serve: shards must be >= 1");
    // Each shard starts a thread, and each ring builds its slots up front.
    if (options.shards > exp::kMaxJobs) {
        return Result::failure("serve: shards must be <= " + std::to_string(exp::kMaxJobs));
    }
    if (options.ring_capacity > kMaxRingCapacity) {
        return Result::failure("serve: ring_capacity must be <= " +
                               std::to_string(kMaxRingCapacity));
    }
    if (options.schemes.empty()) return Result::failure("serve: no schemes configured");
    // 0 would spin the intake on poll(0); a negative timeout blocks in
    // read(), where request_stop() cannot reach a quiet stream.
    if (options.read_timeout_ms <= 0) {
        return Result::failure("serve: read_timeout_ms must be > 0");
    }
    for (const std::string& name : options.schemes) {
        if (!registry.contains(name)) {
            return Result::failure("serve: unknown scheme '" + name + "'");
        }
    }
    return Result{std::make_unique<Server>(registry, std::move(options))};
}

Server::Server(const detect::Registry& registry, ServerOptions options)
    : registry_(registry), options_(std::move(options)) {}

common::Expected<bool> Server::build_shards(std::uint64_t seed,
                                            std::vector<detect::HostRecord> directory,
                                            const RestoredState* restored,
                                            Shard::AlertWriter write_alerts) {
    using Result = common::Expected<bool>;
    seed_ = coerce_seed(seed);
    directory_ = std::move(directory);

    replay::SessionOptions session_options;
    session_options.seed = seed_;
    session_options.directory = directory_;

    Shard::Options shard_options;
    shard_options.ring_capacity = options_.ring_capacity;
    shard_options.write_alerts = std::move(write_alerts);

    shards_.clear();
    shards_.reserve(options_.shards);
    for (std::size_t i = 0; i < options_.shards; ++i) {
        shards_.push_back(std::make_unique<Shard>(i, registry_, options_.schemes,
                                                  session_options, shard_options));
    }

    if (restored != nullptr && restored->shard_states.is_array()) {
        const Result malformed = Result::failure("snapshot: malformed shard state");
        for (const telemetry::Json& state : restored->shard_states.as_array()) {
            const telemetry::Json* idx = state.find("shard");
            if (idx == nullptr || !idx->is_int()) return malformed;
            const auto shard_index = static_cast<std::size_t>(idx->as_int());
            if (shard_index >= shards_.size()) {
                return Result::failure("snapshot: shard index out of range");
            }
            Shard& shard = *shards_[shard_index];
            const telemetry::Json* sessions = state.find("sessions");
            if (sessions == nullptr || !sessions->is_array()) return malformed;
            for (const telemetry::Json& sess : sessions->as_array()) {
                const telemetry::Json* scheme_name = sess.find("scheme");
                if (scheme_name == nullptr || !scheme_name->is_string()) return malformed;
                const auto& names = shard.scheme_names();
                const auto it = std::find(names.begin(), names.end(), scheme_name->as_string());
                if (it == names.end()) return malformed;
                replay::SchemeSession& session =
                    shard.session(static_cast<std::size_t>(it - names.begin()));
                if (const telemetry::Json* st = sess.find("state"); st != nullptr) {
                    session.scheme().restore_state(*st);
                }
                if (const telemetry::Json* now = sess.find("now_ns");
                    now != nullptr && now->is_int()) {
                    session.advance_to(common::SimTime{now->as_int()});
                }
            }
        }
    }
    return Result{true};
}

common::Expected<bool> Server::load_restore_file(RestoredState& out) const {
    using Result = common::Expected<bool>;
    const auto text = common::read_file(options_.restore_path);
    if (!text.ok()) return Result::failure("snapshot: " + text.error());
    const auto parsed = telemetry::Json::parse(text.value());
    if (!parsed.has_value() || !parsed->is_object()) {
        return Result::failure("snapshot: " + options_.restore_path + " is not a JSON object");
    }
    const telemetry::Json& j = *parsed;

    const telemetry::Json* schema = j.find("schema");
    if (schema == nullptr || !schema->is_string() || schema->as_string() != kSnapshotSchema) {
        return Result::failure(std::string{"snapshot: schema is not "} + kSnapshotSchema);
    }
    if (const telemetry::Json* shards = j.find("shards");
        shards == nullptr || !shards->is_int() ||
        static_cast<std::size_t>(shards->as_int()) != options_.shards) {
        return Result::failure("snapshot: shard count does not match server configuration");
    }
    const telemetry::Json* schemes = j.find("schemes");
    if (schemes == nullptr || !schemes->is_array() ||
        schemes->size() != options_.schemes.size()) {
        return Result::failure("snapshot: scheme list does not match server configuration");
    }
    for (std::size_t i = 0; i < options_.schemes.size(); ++i) {
        if (!schemes->at(i).is_string() || schemes->at(i).as_string() != options_.schemes[i]) {
            return Result::failure("snapshot: scheme list does not match server configuration");
        }
    }
    if (const telemetry::Json* seed = j.find("seed"); seed != nullptr && seed->is_int()) {
        out.seed = coerce_seed(static_cast<std::uint64_t>(seed->as_int()));
    }
    if (const telemetry::Json* dir = j.find("directory"); dir != nullptr && dir->is_array()) {
        for (const telemetry::Json& row : dir->as_array()) {
            const telemetry::Json* name = row.find("name");
            const telemetry::Json* ip = row.find("ip");
            const telemetry::Json* mac = row.find("mac");
            if (ip == nullptr || mac == nullptr || !ip->is_string() || !mac->is_string()) {
                return Result::failure("snapshot: malformed directory entry");
            }
            const auto ip_v = wire::Ipv4Address::parse(ip->as_string());
            const auto mac_v = wire::MacAddress::parse(mac->as_string());
            if (!ip_v.ok() || !mac_v.ok()) {
                return Result::failure("snapshot: malformed directory entry");
            }
            detect::HostRecord rec;
            rec.name = (name != nullptr && name->is_string()) ? name->as_string() : "";
            rec.ip = ip_v.value();
            rec.mac = mac_v.value();
            out.directory.push_back(std::move(rec));
        }
    }
    if (const telemetry::Json* states = j.find("shard_states"); states != nullptr) {
        out.shard_states = *states;
    }
    return Result{true};
}

common::Expected<ServeOutcome> Server::serve(Connection& conn) {
    using Result = common::Expected<ServeOutcome>;
    stop_.store(false, std::memory_order_relaxed);
    shards_.clear();
    directory_.clear();
    session_alerts_.clear();
    served_ = false;

    // conn is written by the shard workers (kAlert batches) and, once they
    // are joined, by this thread (summary); each batch goes out whole under
    // one lock so records never interleave mid-record. A failed write means
    // the client is gone: the first one is kept, every later write is
    // skipped, and each writer hears false.
    std::mutex write_mutex;
    std::string write_error;
    const auto write_bytes = [&](const wire::Bytes& data) {
        std::lock_guard<std::mutex> lk(write_mutex);
        if (!write_error.empty()) return false;
        if (conn.write_all(std::span<const std::uint8_t>{data.data(), data.size()})) return true;
        write_error = "write to client failed";
        return false;
    };
    const Shard::AlertWriter write_alerts =
        options_.stream_alerts ? Shard::AlertWriter{write_bytes} : nullptr;

    RestoredState restored;
    bool have_restore = false;
    if (!options_.restore_path.empty()) {
        if (auto r = load_restore_file(restored); !r.ok()) return Result::failure(r.error());
        have_restore = true;
        if (auto b = build_shards(restored.seed, restored.directory, &restored, write_alerts);
            !b.ok()) {
            return Result::failure(b.error());
        }
    }

    auto& c_frames = metrics_.counter("serve.intake.frames");
    auto& c_protocol = metrics_.counter("serve.intake.protocol_errors");

    ServeOutcome outcome;
    wire::StreamDecoder decoder;
    wire::StreamRecord rec;  // decoded into in place, poll after poll

    // Builds the shards lazily and starts their workers: the seed arrives in
    // HELLO and the optional directory record must precede the first frame,
    // so construction happens at the first frame (or at END, so empty
    // streams still snapshot). A restored server built its shards up front.
    bool got_hello = false;
    std::uint64_t hello_seed = 1;
    std::string hello_error;
    bool workers_started = false;
    const auto ensure_shards = [&]() -> bool {
        if (workers_started) return true;
        if (shards_.empty()) {
            if (auto b = build_shards(hello_seed, directory_, nullptr, write_alerts); !b.ok()) {
                hello_error = b.error();
                return false;
            }
        }
        workers_started = true;
        for (auto& shard : shards_) {
            const std::string prefix = "serve.shard." + std::to_string(shard->index());
            shard->start(&watch_, &metrics_.gauge(prefix + ".queue_depth"));
        }
        return true;
    };

    std::vector<std::uint8_t> rbuf(1 << 16);
    bool done_reading = false;
    // Quiet time is counted only when an idle timeout is set, in 64 bits:
    // one timeout's worth past an int idle limit still fits.
    std::int64_t quiet_ms = 0;
    std::uint64_t frames_since_scorecard = 0;

    while (!done_reading) {
        if (stop_.load(std::memory_order_relaxed)) {
            outcome.stopped = true;
            break;
        }
        IoResult io = conn.read_some(std::span<std::uint8_t>{rbuf}, options_.read_timeout_ms);
        switch (io.kind) {
            case IoResult::Kind::kTimeout:
                if (options_.idle_timeout_ms < 0) continue;
                quiet_ms += options_.read_timeout_ms;
                if (quiet_ms >= options_.idle_timeout_ms) {
                    outcome.idled_out = true;
                    done_reading = true;
                }
                continue;
            case IoResult::Kind::kEof:
                done_reading = true;
                continue;
            case IoResult::Kind::kError:
                outcome.transport_error = io.error;
                done_reading = true;
                continue;
            case IoResult::Kind::kData:
                break;
        }
        quiet_ms = 0;
        decoder.feed(std::span<const std::uint8_t>{rbuf.data(), io.bytes});

        while (!done_reading) {
            const wire::StreamDecoder::Status st = decoder.poll(rec);
            if (st == wire::StreamDecoder::Status::kNeedMore) break;
            if (st == wire::StreamDecoder::Status::kBadRecord) continue;
            if (st == wire::StreamDecoder::Status::kFatal) {
                outcome.transport_error = "stream framing lost: " + decoder.last_error();
                done_reading = true;
                break;
            }
            switch (rec.type) {
                case wire::StreamRecordType::kHello: {
                    if (got_hello) {
                        c_protocol.inc();
                        break;
                    }
                    got_hello = true;
                    if (have_restore && coerce_seed(rec.hello.seed) != seed_) {
                        hello_error = "hello: seed does not match restored snapshot";
                        done_reading = true;
                        break;
                    }
                    hello_seed = coerce_seed(rec.hello.seed);
                    break;
                }
                case wire::StreamRecordType::kDirectory: {
                    // Only meaningful before the shards exist; a restored
                    // server already carries its directory.
                    if (!got_hello || have_restore || !shards_.empty()) {
                        c_protocol.inc();
                        break;
                    }
                    directory_.clear();
                    for (const wire::StreamHostEntry& e : rec.directory) {
                        detect::HostRecord host;
                        host.name = e.name;
                        host.ip = e.ip;
                        host.mac = e.mac;
                        directory_.push_back(std::move(host));
                    }
                    break;
                }
                case wire::StreamRecordType::kFrame: {
                    if (!got_hello) {
                        c_protocol.inc();
                        break;
                    }
                    if (!ensure_shards()) {
                        done_reading = true;
                        break;
                    }
                    c_frames.inc();
                    const auto at =
                        common::SimTime{static_cast<std::int64_t>(rec.frame.at_nanos)};
                    const std::size_t target = shard_of(rec.frame.bytes, shards_.size());
                    shards_[target]->add(at, rec.frame.bytes);
                    if (options_.scorecard_every > 0 &&
                        ++frames_since_scorecard >= options_.scorecard_every) {
                        frames_since_scorecard = 0;
                        write_scorecard_line(c_frames.value());
                    }
                    break;
                }
                case wire::StreamRecordType::kEnd: {
                    if (!got_hello) {
                        // Still the end of the stream: waiting for more
                        // data after the client said END would hang.
                        c_protocol.inc();
                        done_reading = true;
                        break;
                    }
                    if (ensure_shards()) outcome.ended_by_end_record = true;
                    done_reading = true;
                    break;
                }
                case wire::StreamRecordType::kAlert:
                case wire::StreamRecordType::kSummary:
                    // Server-to-client record types arriving inbound.
                    c_protocol.inc();
                    break;
            }
        }
        // Frames wait in a shard's open batch only until the chunk that
        // carried them is decoded.
        for (auto& shard : shards_) shard->flush();
    }
    metrics_.counter("serve.intake.bytes").inc(decoder.bytes_fed());
    metrics_.counter("serve.intake.records").inc(decoder.records());
    metrics_.counter("serve.intake.bad_records").inc(decoder.bad_records());

    // Wind down (each shard submits what is left in its open batch): no
    // grace after a stop (the snapshot must capture exactly the fed state)
    // or an abandoned stream (EOF without END).
    const bool run_grace = outcome.ended_by_end_record && !outcome.stopped;
    for (auto& shard : shards_) shard->finish_input(run_grace, options_.grace);
    for (auto& shard : shards_) shard->join();

    // Fold worker-side stats and alerts in now that the threads are gone.
    // The alerts move out of the sessions; snapshots still need each
    // session's count.
    std::uint64_t backpressure = 0;
    std::uint64_t written = 0;
    for (auto& shard : shards_) {
        for (std::size_t s = 0; s < shard->session_count(); ++s) {
            std::vector<detect::Alert> alerts = shard->session(s).alerts().take();
            session_alerts_.push_back(alerts.size());
            outcome.alerts.insert(outcome.alerts.end(), std::make_move_iterator(alerts.begin()),
                                  std::make_move_iterator(alerts.end()));
        }
        backpressure += shard->backpressure_waits();
        written += shard->alerts_written();
        const std::string prefix = "serve.shard." + std::to_string(shard->index());
        metrics_.counter(prefix + ".frames").inc(shard->frames());
        metrics_.counter(prefix + ".malformed").inc(shard->malformed());
        metrics_.counter(prefix + ".alerts").inc(shard->alerts_emitted());
        metrics_
            .histogram("serve.shard.drain_latency_seconds", shard->drain_latency().bounds())
            .merge(shard->drain_latency());
    }
    metrics_.counter("serve.intake.backpressure_waits").inc(backpressure);
    metrics_.counter("serve.alerts.streamed").inc(outcome.alerts.size());
    metrics_.counter("serve.alerts.written").inc(written);

    if (!hello_error.empty()) return Result::failure(hello_error);

    served_ = true;
    outcome.summary = build_summary(outcome);
    // A read or framing error stands; otherwise the first failed write, of
    // an alert batch or of the summary, is the stream's error.
    if (outcome.transport_error.empty()) {
        wire::Bytes summary_record;
        wire::encode_summary(summary_record, outcome.summary.dump());
        write_bytes(summary_record);
        outcome.transport_error = write_error;
    }
    if (options_.scorecard_every > 0) write_scorecard_line(c_frames.value());
    return Result{std::move(outcome)};
}

telemetry::Json Server::build_summary(const ServeOutcome& outcome) const {
    // Deterministic fields only: identical streams must produce identical
    // summaries, so wall-clock timings and contention counters (which vary
    // run to run) stay out — they live in the metrics registry instead.
    telemetry::Json j = telemetry::Json::object();
    j["schema"] = kSummarySchema;
    j["seed"] = seed_;
    telemetry::Json schemes = telemetry::Json::array();
    for (const std::string& name : options_.schemes) schemes.push_back(name);
    j["schemes"] = std::move(schemes);
    j["shards"] = static_cast<std::uint64_t>(options_.shards);

    std::uint64_t frames = 0;
    std::uint64_t malformed = 0;
    telemetry::Json per_shard = telemetry::Json::array();
    for (const auto& shard : shards_) {
        frames += shard->frames();
        malformed += shard->malformed();
        telemetry::Json row = telemetry::Json::object();
        row["shard"] = static_cast<std::uint64_t>(shard->index());
        row["frames"] = shard->frames();
        row["malformed"] = shard->malformed();
        row["alerts"] = shard->alerts_emitted();
        per_shard.push_back(std::move(row));
    }
    j["frames"] = frames;
    j["malformed"] = malformed;
    j["alerts"] = static_cast<std::uint64_t>(outcome.alerts.size());
    j["end_record"] = outcome.ended_by_end_record;
    j["stopped"] = outcome.stopped;
    j["per_shard"] = std::move(per_shard);
    return j;
}

void Server::write_scorecard_line(std::uint64_t frames_total) {
    if (options_.scorecard_path.empty()) return;
    std::ofstream out{options_.scorecard_path, std::ios::app};
    if (!out) return;
    telemetry::Json j = telemetry::Json::object();
    j["schema"] = kScorecardSchema;
    j["frames"] = frames_total;
    std::uint64_t alerts = 0;
    telemetry::Json depths = telemetry::Json::array();
    for (const auto& shard : shards_) {
        alerts += shard->alerts_emitted();
        depths.push_back(static_cast<std::uint64_t>(shard->queue_depth()));
    }
    j["alerts"] = alerts;
    j["queue_depths"] = std::move(depths);
    out << j.dump() << '\n';
}

common::Expected<bool> Server::write_snapshot(const std::string& path) const {
    using Result = common::Expected<bool>;
    if (!served_) return Result::failure("snapshot: no completed serve() to capture");

    telemetry::Json j = telemetry::Json::object();
    j["schema"] = kSnapshotSchema;
    j["seed"] = seed_;
    j["shards"] = static_cast<std::uint64_t>(options_.shards);
    telemetry::Json schemes = telemetry::Json::array();
    for (const std::string& name : options_.schemes) schemes.push_back(name);
    j["schemes"] = std::move(schemes);
    telemetry::Json directory = telemetry::Json::array();
    for (const detect::HostRecord& host : directory_) {
        telemetry::Json row = telemetry::Json::object();
        row["name"] = host.name;
        row["ip"] = host.ip.to_string();
        row["mac"] = host.mac.to_string();
        directory.push_back(std::move(row));
    }
    j["directory"] = std::move(directory);

    telemetry::Json shard_states = telemetry::Json::array();
    std::size_t next_session = 0;  // session_alerts_ runs shard by shard, scheme by scheme
    for (const auto& shard : shards_) {
        telemetry::Json state = telemetry::Json::object();
        state["shard"] = static_cast<std::uint64_t>(shard->index());
        state["frames"] = shard->frames();
        state["malformed"] = shard->malformed();
        telemetry::Json sessions = telemetry::Json::array();
        for (std::size_t s = 0; s < shard->session_count(); ++s) {
            const replay::SchemeSession& session = shard->session(s);
            telemetry::Json row = telemetry::Json::object();
            row["scheme"] = shard->scheme_names()[s];
            row["alerts"] = session_alerts_[next_session++];
            row["last_at_ns"] = session.last_at().nanos();
            row["now_ns"] = session.now().nanos();
            row["state"] = session.scheme().snapshot_state();
            sessions.push_back(std::move(row));
        }
        state["sessions"] = std::move(sessions);
        shard_states.push_back(std::move(state));
    }
    j["shard_states"] = std::move(shard_states);

    if (auto written = common::write_file(path, j.dump(2) + "\n"); !written.ok()) {
        return Result::failure("snapshot: " + written.error());
    }
    return Result{true};
}

}  // namespace arpsec::serve
