#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/ring.hpp"
#include "common/time.hpp"
#include "detect/registry.hpp"
#include "replay/session.hpp"
#include "telemetry/metrics.hpp"
#include "wire/buffer.hpp"
#include "wire/frame.hpp"

namespace arpsec::serve {

/// Frames per intake->worker batch: one ring slot, one drain-latency
/// sample and one queue-depth update per batch instead of per frame.
inline constexpr std::size_t kBatchFrames = 256;

/// A batch arena that has grown past this many bytes is released when the
/// intake clears the batch, not kept for the next one: about 40 typical
/// batches (256 frames of ~95 bytes) fit under it, so only a burst of
/// jumbo or near-1 MiB records lets an arena go, and such a burst does not
/// stay resident for the rest of the connection.
inline constexpr std::size_t kMaxKeptArenaBytes = 1u << 20;

/// Where one frame of a batch sits in the batch's arena, and its capture
/// time.
struct FrameRef {
    common::SimTime at;
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
};

/// Up to kBatchFrames frames bound for one shard: the unit of the
/// intake->worker ring. The intake copies each frame's record bytes into
/// the arena, back to back, and the worker walks `frames` over that one
/// contiguous buffer. Both vectors keep their capacity across clear(), so
/// once a ring slot's batch has grown, neither thread allocates per frame.
struct Batch {
    std::vector<FrameRef> frames;
    wire::Bytes arena;
    /// Server stopwatch reading at submit; the worker's reading when it
    /// takes the batch minus this is the batch's drain-latency sample.
    double submitted_s = 0.0;

    /// Appends one frame (its bytes are copied into the arena).
    void add(common::SimTime at, std::span<const std::uint8_t> bytes);
    /// The bytes of a frame of this batch.
    [[nodiscard]] std::span<const std::uint8_t> bytes(const FrameRef& frame) const {
        return std::span<const std::uint8_t>{arena}.subspan(frame.offset, frame.size);
    }
    /// Empties the batch and keeps its capacity, unless the arena has grown
    /// past kMaxKeptArenaBytes: then it is freed.
    void clear();
};

/// Picks the shard for a frame's wire bytes: a splitmix64 mix of
/// wire::binding_key(), the IP address whose binding the frame claims (an
/// ARP sender, a DHCP lease's yiaddr/ciaddr, an IPv4 source; the source MAC
/// when the frame is too short to hold it). Every monitor-vantage detector
/// keeps its state per that address — arpwatch and active-probe per ARP
/// sender, lease-monitor per leased IP — so its state never splits across
/// workers, while the stations of one subnet spread over all of them.
/// Frames without a supported Ethernet header all land on shard 0: they
/// carry no addresses, and every session counts them the same way.
[[nodiscard]] std::size_t shard_of(std::span<const std::uint8_t> frame, std::size_t shards);

/// The same choice for a view: shard_of(view.bytes(), shards).
[[nodiscard]] std::size_t shard_of(const wire::FrameView& view, std::size_t shards);

/// One detector worker: an intake ring of frame batches and one
/// SchemeSession per configured scheme. The intake thread is the only
/// producer, the worker thread the only consumer (and the only toucher of
/// the sessions). The worker reads each batch in place: it recaptures each
/// frame into one FrameBuffer it recycles (FrameBuffer::recapture), feeds
/// its sessions a view of it, and drops the view before the next frame;
/// then it hands the slot back. The intake's next push into that slot takes
/// the consumed batch back and clears it, keeping its capacity, so no
/// FrameView ever crosses threads and neither thread allocates per frame
/// once the ring's batches have grown. The worker formats its own kAlert
/// records into a buffer it owns and hands each batch to the server's alert
/// writer; once a write fails it drops the writer and encodes no more. All
/// cross-thread stats are relaxed atomics; the drain-latency histogram and
/// the written-alert count are worker-owned and read after join().
class Shard {
public:
    /// Sends one batch of encoded kAlert records to the client and reports
    /// whether the client is still there: false once a write has failed.
    /// Every worker calls it; the server serializes the writes under one
    /// lock.
    using AlertWriter = std::function<bool(const wire::Bytes&)>;

    struct Options {
        /// Ring bound in frames, rounded up to whole kBatchFrames batches.
        std::size_t ring_capacity = 4096;
        /// Null turns alert streaming off.
        AlertWriter write_alerts;
    };

    /// Builds the sessions eagerly on the constructing thread. `registry`
    /// must resolve every scheme name (the server validates first).
    Shard(std::size_t index, const detect::Registry& registry,
          const std::vector<std::string>& schemes,
          const replay::SessionOptions& session_options, const Options& options);
    ~Shard();

    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    /// Spawns the worker thread. `clock` and `depth` must outlive the
    /// shard; `depth` is set on the intake thread after each submitted
    /// batch.
    void start(const common::Stopwatch* clock, telemetry::Gauge* depth);

    /// Intake thread only. Copies a frame's bytes into the open batch and
    /// submits the batch once it holds kBatchFrames frames.
    void add(common::SimTime at, std::span<const std::uint8_t> bytes);

    /// Intake thread only. Submits the open batch if it holds any frame,
    /// blocking while the ring is full: no admitted frame is ever dropped,
    /// and the transport's own backpressure pushes back on the client.
    void flush();

    /// Intake thread: no more submissions. Submits the open batch; the
    /// worker drains its ring, optionally runs each session's grace window
    /// (delayed alerts), and exits. `run_grace` is false on snapshot-bound
    /// stops so learned state freezes at the last fed frame.
    void finish_input(bool run_grace, common::Duration grace);

    /// Joins the worker thread (idempotent) and drops the alert writer,
    /// which refers to the serve() call's connection.
    void join();

    // Live stats (any thread; relaxed atomics).
    [[nodiscard]] std::uint64_t frames() const { return frames_.load(std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t malformed() const {
        return malformed_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t alerts_emitted() const {
        return alerts_emitted_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t backpressure_waits() const {
        return backpressure_waits_.load(std::memory_order_relaxed);
    }
    /// Frames submitted to the ring and not yet fed to the sessions.
    [[nodiscard]] std::size_t queue_depth() const {
        return queued_frames_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t index() const { return index_; }

    /// Post-join only: the worker no longer exists, so these are safe to
    /// read from the server thread.
    [[nodiscard]] const telemetry::Histogram& drain_latency() const { return latency_; }
    /// kAlert records carried by writes that succeeded.
    [[nodiscard]] std::uint64_t alerts_written() const { return alerts_written_; }
    [[nodiscard]] const std::vector<std::string>& scheme_names() const { return scheme_names_; }
    [[nodiscard]] replay::SchemeSession& session(std::size_t i) { return *sessions_[i]; }
    [[nodiscard]] const replay::SchemeSession& session(std::size_t i) const {
        return *sessions_[i];
    }
    [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

private:
    void run();
    bool drain_one();
    void process(common::SimTime at, std::span<const std::uint8_t> bytes);
    void flush_alerts();

    std::size_t index_;
    std::vector<std::string> scheme_names_;
    std::vector<std::unique_ptr<replay::SchemeSession>> sessions_;
    common::SpscRing<Batch> ring_;
    AlertWriter write_alerts_;
    const common::Stopwatch* clock_ = nullptr;
    // Intake-owned, on their own cache line: open_ changes with every frame.
    alignas(64) Batch open_;  // frames not yet submitted
    telemetry::Gauge* depth_ = nullptr;
    // Worker-owned.
    alignas(64) wire::FrameBuffer capture_;  // recaptured for every frame
    std::string alert_line_;                 // one alert's line, reused
    wire::Bytes alert_bytes_;                // encoded kAlert records not yet written
    std::uint64_t alerts_pending_ = 0;       // records in alert_bytes_
    std::uint64_t alerts_written_ = 0;
    telemetry::Histogram latency_;

    std::atomic<bool> input_done_{false};
    bool run_grace_ = false;          // written before input_done_ release-store
    common::Duration grace_ = common::Duration::zero();

    std::atomic<std::uint64_t> frames_{0};
    std::atomic<std::uint64_t> malformed_{0};
    std::atomic<std::uint64_t> alerts_emitted_{0};
    std::atomic<std::uint64_t> backpressure_waits_{0};
    std::atomic<std::size_t> queued_frames_{0};

    std::thread thread_;
    bool joined_ = true;
};

}  // namespace arpsec::serve
