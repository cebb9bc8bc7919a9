#include "serve/shard.hpp"

#include <optional>
#include <utility>

#include "serve/alert_stream.hpp"
#include "wire/binding_key.hpp"
#include "wire/stream_codec.hpp"

namespace arpsec::serve {

namespace {

/// splitmix64 finisher: spreads the low-entropy address keys so the
/// consecutive addresses of one subnet don't map onto consecutive shards.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// A worker writes its pending alert records once this many bytes pile up,
/// even while its intake ring stays busy.
constexpr std::size_t kAlertFlushBytes = 64 * 1024;

/// Ring slots for a bound of `frames`: whole batches, rounded up (written
/// so that a huge `--ring` cannot wrap around).
std::size_t batch_slots(std::size_t frames) {
    return frames / kBatchFrames + (frames % kBatchFrames == 0 ? 0 : 1);
}

/// Drain-latency buckets: 1µs .. 1s, decade-spaced. Queueing under load
/// lives in the middle decades; the overflow bucket flags a stalled worker.
std::vector<double> latency_bounds() {
    return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0};
}

}  // namespace

void Batch::add(common::SimTime at, std::span<const std::uint8_t> bytes) {
    frames.push_back(FrameRef{at, static_cast<std::uint32_t>(arena.size()),
                              static_cast<std::uint32_t>(bytes.size())});
    arena.insert(arena.end(), bytes.begin(), bytes.end());
}

void Batch::clear() {
    frames.clear();
    if (arena.capacity() > kMaxKeptArenaBytes) {
        wire::Bytes{}.swap(arena);
    } else {
        arena.clear();
    }
}

std::size_t shard_of(std::span<const std::uint8_t> frame, std::size_t shards) {
    if (shards <= 1) return 0;
    const std::optional<std::uint64_t> key = wire::binding_key(frame);
    if (!key) return 0;  // malformed: no addresses to key on
    return static_cast<std::size_t>(mix64(*key) % shards);
}

std::size_t shard_of(const wire::FrameView& view, std::size_t shards) {
    return shard_of(view.bytes(), shards);
}

Shard::Shard(std::size_t index, const detect::Registry& registry,
             const std::vector<std::string>& schemes,
             const replay::SessionOptions& session_options, const Options& options)
    : index_(index),
      scheme_names_(schemes),
      ring_(batch_slots(options.ring_capacity)),
      write_alerts_(options.write_alerts),
      latency_(latency_bounds()) {
    sessions_.reserve(schemes.size());
    for (const std::string& name : schemes) {
        auto session =
            std::make_unique<replay::SchemeSession>(registry.make(name), session_options);
        session->alerts().on_alert = [this](const detect::Alert& a) {
            alerts_emitted_.fetch_add(1, std::memory_order_relaxed);
            if (!write_alerts_) return;
            alert_line_.clear();
            append_alert_line(alert_line_, a);
            wire::encode_alert(alert_bytes_, alert_line_);
            ++alerts_pending_;
        };
        sessions_.push_back(std::move(session));
    }
}

Shard::~Shard() { join(); }

void Shard::start(const common::Stopwatch* clock, telemetry::Gauge* depth) {
    clock_ = clock;
    depth_ = depth;
    joined_ = false;
    thread_ = std::thread([this] { run(); });
}

void Shard::add(common::SimTime at, std::span<const std::uint8_t> bytes) {
    open_.add(at, bytes);
    if (open_.frames.size() >= kBatchFrames) flush();
}

void Shard::flush() {
    const std::size_t n = open_.frames.size();
    if (n == 0) return;
    open_.submitted_s = clock_->elapsed_seconds();
    // Counted before the push: once the batch is in the ring the worker may
    // finish it and subtract its frames.
    queued_frames_.fetch_add(n, std::memory_order_relaxed);
    if (!ring_.push(open_)) {
        backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
        while (!ring_.push(open_)) std::this_thread::yield();
    }
    depth_->set(static_cast<std::int64_t>(queue_depth()));
    // open_ now holds the slot's previous occupant: a batch the worker has
    // finished with. Clearing it here keeps its capacity for the next batch
    // (an oversized arena is freed, on this thread, which allocated it).
    open_.clear();
}

void Shard::finish_input(bool run_grace, common::Duration grace) {
    flush();
    run_grace_ = run_grace;
    grace_ = grace;
    input_done_.store(true, std::memory_order_release);
}

void Shard::join() {
    if (!joined_ && thread_.joinable()) thread_.join();
    joined_ = true;
    write_alerts_ = nullptr;
}

void Shard::run() {
    for (;;) {
        if (drain_one()) continue;
        flush_alerts();
        if (input_done_.load(std::memory_order_acquire)) {
            // One more sweep: the producer may have pushed between our
            // failed front() and the flag load.
            while (drain_one()) {
            }
            break;
        }
        std::this_thread::yield();
    }
    for (auto& session : sessions_) {
        if (run_grace_) {
            session->finish(grace_);
        } else {
            // A stop freezes at the last frame: a session that counted
            // frames without running its clock catches up to them, so the
            // alerts and the snapshot see exactly the fed state.
            session->advance_to(session->last_at());
        }
    }
    flush_alerts();
    wire::flush_frameview_hits();
}

bool Shard::drain_one() {
    Batch* batch = ring_.front();
    if (batch == nullptr) return false;
    latency_.observe(clock_->elapsed_seconds() - batch->submitted_s);
    for (const FrameRef& frame : batch->frames) process(frame.at, batch->bytes(frame));
    const std::size_t n = batch->frames.size();
    frames_.fetch_add(n, std::memory_order_relaxed);
    // Before pop(): the intake's next push into this slot must see the
    // frames gone, so queue_depth never counts a slot twice.
    queued_frames_.fetch_sub(n, std::memory_order_relaxed);
    ring_.pop();  // the batch stays in its slot; the intake frees it
    return true;
}

void Shard::process(common::SimTime at, std::span<const std::uint8_t> bytes) {
    // A copy this thread owns: the view and its parse memo live and die here.
    capture_.recapture(bytes);
    const wire::FrameView view{capture_};
    bool ok = true;
    for (auto& session : sessions_) ok = session->feed(at, view) && ok;
    if (!ok) malformed_.fetch_add(1, std::memory_order_relaxed);
    if (alert_bytes_.size() >= kAlertFlushBytes) flush_alerts();
}

void Shard::flush_alerts() {
    if (alert_bytes_.empty()) return;
    if (write_alerts_(alert_bytes_)) {
        alerts_written_ += alerts_pending_;
    } else {
        write_alerts_ = nullptr;  // the client is gone: encode nothing more
    }
    alerts_pending_ = 0;
    alert_bytes_.clear();
}

}  // namespace arpsec::serve
