#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace arpsec::common {

/// Bounded single-producer / single-consumer ring buffer.
///
/// Exactly one thread may call the push side and exactly one thread the pop
/// side; under that contract every operation is lock-free (one relaxed load,
/// one acquire load, one release store per call) and the queue delivers
/// items in strict FIFO order. The serve intake->shard hop uses one ring per
/// shard (producer: the intake thread, consumer: the shard worker), and the
/// bounded capacity is what gives serving its backpressure: an intake whose
/// ring is full cannot run unboundedly ahead of the shard.
///
/// Capacity is rounded up to a power of two so index wrapping is a mask,
/// and one slot is sacrificed to distinguish full from empty — a ring asked
/// for capacity N accepts at least N items before try_push fails.
///
/// T must be default-constructible and movable. This lives in common/ by
/// design (see the no-threads-in-sim lint rule): the ring itself spawns no
/// threads and takes no locks; only src/exp/ and src/serve/ may put
/// threads on either end.
template <typename T>
class SpscRing {
public:
    explicit SpscRing(std::size_t capacity) {
        std::size_t cap = 2;
        while (cap < capacity + 1) cap *= 2;  // +1: one slot stays empty
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    SpscRing(const SpscRing&) = delete;
    SpscRing& operator=(const SpscRing&) = delete;

    /// Usable capacity (>= the constructor argument).
    [[nodiscard]] std::size_t capacity() const { return slots_.size() - 1; }

    /// Producer side. Returns false when the ring is full (item untouched).
    [[nodiscard]] bool try_push(T&& item) {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t next = (head + 1) & mask_;
        if (next == tail_.load(std::memory_order_acquire)) return false;
        slots_[head] = std::move(item);
        head_.store(next, std::memory_order_release);
        return true;
    }
    [[nodiscard]] bool try_push(const T& item) {
        T copy = item;
        return try_push(std::move(copy));
    }

    /// Consumer side. Returns false when the ring is empty (out untouched).
    [[nodiscard]] bool try_pop(T& out) {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail == head_.load(std::memory_order_acquire)) return false;
        out = std::move(slots_[tail]);
        tail_.store((tail + 1) & mask_, std::memory_order_release);
        return true;
    }

    /// Item count. Exact from the producer or consumer thread between its
    /// own operations; a snapshot (may be stale by in-flight operations)
    /// from anywhere else. Shard::queue_depth() samples this for the serve
    /// queue-depth gauge.
    [[nodiscard]] std::size_t size() const {
        const std::size_t head = head_.load(std::memory_order_acquire);
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        return (head - tail) & mask_;
    }

    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] bool full() const { return size() == capacity(); }

private:
    std::vector<T> slots_;
    std::size_t mask_ = 0;
    alignas(64) std::atomic<std::size_t> head_{0};  // next write (producer-owned)
    alignas(64) std::atomic<std::size_t> tail_{0};  // next read (consumer-owned)
};

}  // namespace arpsec::common
