#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/time.hpp"
#include "detect/alert.hpp"
#include "detect/registry.hpp"
#include "replay/session.hpp"
#include "serve/shard.hpp"
#include "serve/transport.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace arpsec::serve {

/// Snapshot artifact schema written by Server::write_snapshot.
inline constexpr const char* kSnapshotSchema = "arpsec.serve-snapshot.v2";
/// Schema of the final kSummary record and of serve() outcome summaries.
inline constexpr const char* kSummarySchema = "arpsec.serve-summary.v2";
/// Schema of the periodic scorecard JSONL lines.
inline constexpr const char* kScorecardSchema = "arpsec.serve-scorecard.v1";

/// The largest per-shard ring create() accepts, in frames: 4096 batches,
/// 256 times the default.
inline constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 20;

struct ServerOptions {
    /// Scheme names deployed in every shard (each shard owns one
    /// SchemeSession per name).
    std::vector<std::string> schemes{"arpwatch"};
    /// Shard workers, 1 to exp::kMaxJobs; each starts its own thread.
    std::size_t shards = 1;
    /// Per-shard intake ring bound in frames, at most kMaxRingCapacity,
    /// rounded up to whole kBatchFrames batches (each shard builds its ring
    /// slots up front).
    std::size_t ring_capacity = 4096;
    /// Virtual-time grace window run after a clean END record so delayed
    /// alerts (probe timeouts) land — the same default arpsec-replay uses.
    common::Duration grace = replay::kDefaultGrace;
    /// Per-read timeout: how often a quiet stream polls the stop flag and
    /// the idle clock. Must be > 0: create() refuses 0 (the intake would
    /// spin) and a negative value (a blocking read, where request_stop()
    /// cannot reach a quiet stream).
    int read_timeout_ms = 100;
    /// Total quiet time (consecutive timeouts with no data) before the
    /// stream is abandoned. <0 disables.
    int idle_timeout_ms = -1;
    /// Append a scorecard JSONL line to `scorecard_path` every N admitted
    /// frames (0 disables).
    std::uint64_t scorecard_every = 0;
    std::string scorecard_path;
    /// Stream kAlert records back to the client as the shard workers
    /// raise them (the final kSummary record is sent either way).
    bool stream_alerts = true;
    /// Load this `arpsec.serve-snapshot.v2` file before serving; the
    /// stream's HELLO seed must then match the snapshot's.
    std::string restore_path;
};

/// What one serve() call produced.
struct ServeOutcome {
    /// Every alert the shards raised during this serve(), moved out of
    /// their sessions after the workers are joined: shard by shard, scheme
    /// by scheme (sort_canonical() for artifacts).
    std::vector<detect::Alert> alerts;
    /// `arpsec.serve-summary.v2` — deterministic fields only.
    telemetry::Json summary;
    bool ended_by_end_record = false;
    /// request_stop() interrupted the stream (snapshot-bound shutdown).
    bool stopped = false;
    /// Idle timeout abandoned the stream.
    bool idled_out = false;
    /// Non-empty when a read failed, the framing latched fatal, or a write
    /// to the client failed (every later alert batch and the summary are
    /// then skipped); a read or framing error takes precedence over a failed
    /// write. Everything admitted before the failure was still processed.
    std::string transport_error;
};

/// The long-lived streaming detection service. One serve() call owns one
/// client stream end to end:
///
///   intake thread (the caller) — reads the transport, decodes
///     `arpsec.stream.v1` records in place into one reused record, and
///     copies each frame's bytes into the arena of the open batch of the
///     shard that shard_of() picks from the IP the frame claims; a batch
///     goes into the shard's ring when it holds kBatchFrames frames and at
///     the end of every decoded transport chunk (single producer to every
///     ring). Consumed batches come back through the ring and are cleared
///     here, keeping their capacity;
///   N shard workers — each owns its SchemeSessions and its frames: it
///     recaptures each frame into one recycled FrameBuffer (single consumer
///     of its ring), feeds its sessions a view of it, and formats its own
///     kAlert records into a buffer it writes back to the client, one batch
///     per write under a shared lock. A worker whose write fails stops
///     encoding alerts; it still feeds every frame.
///
/// Once the rings' batches have grown, no thread allocates per frame on the
/// way from the socket to the schemes (the schemes' own parses aside).
///
/// Backpressure is the only admission policy: a full shard ring blocks the
/// intake thread, so the transport pushes back on the client and every
/// admitted frame reaches the same sessions an offline replay runs. A
/// client that stops reading alerts blocks the writing worker, so its ring
/// fills and the same push-back reaches the client's writes. Malformed
/// records are skipped with typed errors; only a corrupt length prefix
/// (framing lost) abandons the stream — the daemon itself survives both.
class Server {
public:
    /// Fails when options name an unknown scheme or no scheme, shards is 0
    /// or above exp::kMaxJobs, ring_capacity is above kMaxRingCapacity, or
    /// read_timeout_ms <= 0. It starts no thread and builds no ring.
    [[nodiscard]] static common::Expected<std::unique_ptr<Server>> create(
        const detect::Registry& registry, ServerOptions options);

    /// Serves one client stream to completion (END, EOF, error, idle
    /// timeout, or request_stop). Failure only for pre-stream errors
    /// (snapshot restore failure, HELLO protocol violation); transport
    /// failures mid-stream land in ServeOutcome::transport_error instead so
    /// the partial results survive.
    [[nodiscard]] common::Expected<ServeOutcome> serve(Connection& conn);

    /// Asynchronously asks the current serve() to wind down: the intake
    /// loop exits at the next poll, shards drain what was admitted and
    /// freeze (no grace window), so a snapshot captures exactly the fed
    /// state. Safe to call from a signal handler (one relaxed store).
    void request_stop() { stop_.store(true, std::memory_order_relaxed); }

    /// True once request_stop() has been called (the daemon's accept loop
    /// polls this between clients).
    [[nodiscard]] bool stop_requested() const {
        return stop_.load(std::memory_order_relaxed);
    }

    /// Writes `arpsec.serve-snapshot.v2` for the last completed serve().
    /// Call after serve() returns (the workers are joined by then).
    [[nodiscard]] common::Expected<bool> write_snapshot(const std::string& path) const;

    /// Intake-side counters/gauges (`serve.intake.*`, `serve.shard.*`),
    /// complete after serve() returns.
    [[nodiscard]] telemetry::MetricsRegistry& metrics() { return metrics_; }
    [[nodiscard]] const ServerOptions& options() const { return options_; }

    /// Prefer create(): it validates the options first. Public only so
    /// make_unique can reach it.
    Server(const detect::Registry& registry, ServerOptions options);

private:
    struct RestoredState {
        std::uint64_t seed = 1;
        std::vector<detect::HostRecord> directory;
        telemetry::Json shard_states;  // array, one entry per shard
    };

    common::Expected<bool> load_restore_file(RestoredState& out) const;
    common::Expected<bool> build_shards(std::uint64_t seed,
                                        std::vector<detect::HostRecord> directory,
                                        const RestoredState* restored,
                                        Shard::AlertWriter write_alerts);
    void write_scorecard_line(std::uint64_t frames_total);
    telemetry::Json build_summary(const ServeOutcome& outcome) const;

    const detect::Registry& registry_;
    ServerOptions options_;
    telemetry::MetricsRegistry metrics_;
    common::Stopwatch watch_;
    std::atomic<bool> stop_{false};

    // State of the last serve() (valid after it returns; workers joined).
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::uint64_t> session_alerts_;  // per session, shard-major
    std::uint64_t seed_ = 1;
    std::vector<detect::HostRecord> directory_;
    bool served_ = false;
};

}  // namespace arpsec::serve
