#include "serve/shard.hpp"

#include <utility>

#include "serve/alert_stream.hpp"
#include "wire/arp_packet.hpp"
#include "wire/ipv4_packet.hpp"
#include "wire/stream_codec.hpp"

namespace arpsec::serve {

namespace {

/// splitmix64 finisher: spreads the low-entropy subnet keys so consecutive
/// /24s don't all collapse onto consecutive shards.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// A worker writes its pending alert records once this many bytes pile up,
/// even while its intake ring stays busy.
constexpr std::size_t kAlertFlushBytes = 64 * 1024;

/// Drain-latency buckets: 1µs .. 1s, decade-spaced. Queueing under load
/// lives in the middle decades; the overflow bucket flags a stalled worker.
std::vector<double> latency_bounds() {
    return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0};
}

}  // namespace

std::size_t shard_of(const wire::FrameView& view, std::size_t shards) {
    if (shards <= 1) return 0;
    std::uint64_t key = 0;
    if (const wire::ArpPacket* arp = view.arp(); arp != nullptr) {
        key = arp->sender_ip.value() >> 8;
    } else if (const wire::Ipv4Packet* ip = view.ipv4(); ip != nullptr) {
        key = ip->src.value() >> 8;
    } else if (view.ok()) {
        key = view.src().to_u64();
    } else {
        return 0;  // malformed: no addresses to key on
    }
    return static_cast<std::size_t>(mix64(key) % shards);
}

Shard::Shard(std::size_t index, const detect::Registry& registry,
             const std::vector<std::string>& schemes,
             const replay::SessionOptions& session_options, const Options& options)
    : index_(index),
      scheme_names_(schemes),
      ring_(options.ring_capacity),
      drop_when_full_(options.drop_when_full),
      write_alerts_(options.write_alerts),
      latency_(latency_bounds()) {
    sessions_.reserve(schemes.size());
    for (const std::string& name : schemes) {
        auto session =
            std::make_unique<replay::SchemeSession>(registry.make(name), session_options);
        session->alerts().on_alert = [this](const detect::Alert& a) {
            alerts_emitted_.fetch_add(1, std::memory_order_relaxed);
            if (write_alerts_) wire::encode_alert(alert_bytes_, alert_line(a));
        };
        sessions_.push_back(std::move(session));
    }
}

Shard::~Shard() { join(); }

void Shard::start(const common::Stopwatch* clock) {
    clock_ = clock;
    joined_ = false;
    thread_ = std::thread([this] { run(); });
}

bool Shard::submit(common::SimTime at, const wire::FrameView& view, double enqueued_s) {
    // A failed try_push leaves the item untouched, so retrying the same
    // object after a yield is safe.
    WorkItem item{at, view, enqueued_s};
    if (ring_.try_push(std::move(item))) return true;
    if (drop_when_full_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
    while (!ring_.try_push(std::move(item))) std::this_thread::yield();
    return true;
}

void Shard::finish_input(bool run_grace, common::Duration grace) {
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
    WorkItem item;
    for (;;) {
        if (ring_.try_pop(item)) {
            process(item);
            continue;
        }
        flush_alerts();
        if (input_done_.load(std::memory_order_acquire)) {
            // One more sweep: the producer may have pushed between our
            // failed pop and the flag load.
            while (ring_.try_pop(item)) process(item);
            break;
        }
        std::this_thread::yield();
    }
    if (run_grace_) {
        for (auto& session : sessions_) session->finish(grace_);
    }
    flush_alerts();
    wire::flush_frameview_hits();
}

void Shard::process(const WorkItem& item) {
    frames_.fetch_add(1, std::memory_order_relaxed);
    bool ok = true;
    for (auto& session : sessions_) ok = session->feed(item.at, item.view) && ok;
    if (!ok) malformed_.fetch_add(1, std::memory_order_relaxed);
    // enqueued_s < 0 marks an unsampled frame (the intake thread stamps
    // only a subset to keep two clock reads off the per-frame hot path).
    if (clock_ != nullptr && item.enqueued_s >= 0.0) {
        latency_.observe(clock_->elapsed_seconds() - item.enqueued_s);
    }
    if (alert_bytes_.size() >= kAlertFlushBytes) flush_alerts();
}

void Shard::flush_alerts() {
    if (alert_bytes_.empty()) return;
    write_alerts_(alert_bytes_);
    alert_bytes_.clear();
}

}  // namespace arpsec::serve
