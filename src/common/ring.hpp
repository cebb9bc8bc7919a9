#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace arpsec::common {

/// Bounded single-producer / single-consumer ring buffer whose slots are
/// recycled through the producer.
///
/// Exactly one thread may call the push side and exactly one thread the pop
/// side; under that contract every operation is lock-free (at most one
/// relaxed load, one acquire load and one release store per call) and the
/// queue delivers items in strict FIFO order. The serve intake->shard hop
/// uses one ring per shard (producer: the intake thread, consumer: the
/// shard worker), and the bounded capacity is what gives serving its
/// backpressure: an intake whose ring is full cannot run unboundedly ahead
/// of the shard.
///
/// Items never move out on the consumer side: the consumer reads the oldest
/// item in place (front()) and then releases its slot (pop()). The item
/// stays in the slot until the producer's next push there swaps it back
/// out, so whatever the item owns is released on the producer's thread —
/// the thread that allocated it. A popped item is the producer's again; the
/// consumer must not touch it after pop().
///
/// The ring holds exactly `capacity` items (at least one). Head and tail are
/// free-running counters, so no slot is sacrificed to tell full from empty.
/// T must be default-constructible and swappable. This lives in common/ by
/// design (see the no-threads-in-sim lint rule): the ring itself spawns no
/// threads and takes no locks; only src/exp/ and src/serve/ may put
/// threads on either end.
template <typename T>
class SpscRing {
public:
    explicit SpscRing(std::size_t capacity) : slots_(std::max<std::size_t>(capacity, 1)) {}

    SpscRing(const SpscRing&) = delete;
    SpscRing& operator=(const SpscRing&) = delete;

    [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

    /// Producer side. Swaps `item` into the next free slot and hands back
    /// that slot's previous occupant in `item`: a default-constructed T, or
    /// the item the consumer popped from the slot `capacity()` pushes ago.
    /// Returns false when the ring is full (item untouched).
    [[nodiscard]] bool push(T& item) {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head - tail_.load(std::memory_order_acquire) == slots_.size()) return false;
        using std::swap;
        swap(slots_[head % slots_.size()], item);
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /// Consumer side. The oldest item, read in place, or nullptr when the
    /// ring is empty. Valid until pop().
    [[nodiscard]] T* front() {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail == head_.load(std::memory_order_acquire)) return nullptr;
        return &slots_[tail % slots_.size()];
    }

    /// Consumer side. Releases the front slot to the producer. Only after a
    /// front() that returned an item.
    void pop() {
        tail_.store(tail_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
    }

private:
    std::vector<T> slots_;
    alignas(64) std::atomic<std::size_t> head_{0};  // items pushed (producer-owned)
    alignas(64) std::atomic<std::size_t> tail_{0};  // items popped (consumer-owned)
};

}  // namespace arpsec::common
