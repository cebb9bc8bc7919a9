// Tests for the bounded SPSC ring (common/ring.hpp): FIFO order, the
// capacity/full/empty boundary conditions the serve intake->shard
// backpressure rides on, index wraparound, move-only payloads, the
// producer-side hand-back of consumed items, and a producer/consumer stress
// run that the TSan CI job executes with real threads (spawned through
// exp::run_indexed — the sanctioned thread entry point, so this file stays
// clean under the no-threads-in-sim lint rule).

#include "common/ring.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/executor.hpp"

namespace arpsec::common {
namespace {

// Pushes a copy of `value`; returns what the ring handed back, or -1 when
// the ring was full.
int push_value(SpscRing<int>& ring, int value) {
    int item = value;
    return ring.push(item) ? item : -1;
}

// Reads the front item and releases its slot; -1 when the ring is empty.
int pop_value(SpscRing<int>& ring) {
    const int* front = ring.front();
    if (front == nullptr) return -1;
    const int value = *front;
    ring.pop();
    return value;
}

TEST(SpscRingTest, CapacityIsExactlyRequested) {
    for (std::size_t req = 1; req <= 64; ++req) {
        SpscRing<int> ring{req};
        EXPECT_EQ(ring.capacity(), req) << "requested " << req;
        for (std::size_t i = 0; i < req; ++i) ASSERT_NE(push_value(ring, 1), -1);
        EXPECT_EQ(push_value(ring, 1), -1) << "requested " << req;
    }
    // A ring always holds at least one item.
    EXPECT_EQ(SpscRing<int>{0}.capacity(), 1u);
}

TEST(SpscRingTest, StartsEmpty) {
    SpscRing<int> ring{4};
    EXPECT_EQ(ring.front(), nullptr);
    EXPECT_EQ(pop_value(ring), -1);
}

TEST(SpscRingTest, FifoOrder) {
    SpscRing<int> ring{8};
    for (int v = 0; v < 5; ++v) ASSERT_NE(push_value(ring, v), -1);
    for (int v = 0; v < 5; ++v) EXPECT_EQ(pop_value(ring), v);
    EXPECT_EQ(ring.front(), nullptr);
}

TEST(SpscRingTest, FullRejectsPushUntilPopped) {
    SpscRing<int> ring{3};
    for (int i = 0; i < 3; ++i) ASSERT_NE(push_value(ring, i), -1) << "push " << i;
    int item = 99;
    EXPECT_FALSE(ring.push(item));  // bounded: the full ring is backpressure
    EXPECT_EQ(item, 99);            // a refused push leaves the item untouched
    EXPECT_EQ(pop_value(ring), 0);
    EXPECT_NE(push_value(ring, 99), -1);  // one pop frees exactly one slot
    EXPECT_EQ(push_value(ring, 100), -1);
}

TEST(SpscRingTest, DrainingReportsEmpty) {
    SpscRing<int> ring{4};
    ASSERT_NE(push_value(ring, 7), -1);
    const int* front = ring.front();
    ASSERT_NE(front, nullptr);
    EXPECT_EQ(ring.front(), front);  // front() reads in place; only pop() consumes
    ring.pop();
    EXPECT_EQ(ring.front(), nullptr);
}

TEST(SpscRingTest, PushHandsBackTheConsumedItem) {
    // Item k lands in slot k % capacity. Once the consumer has popped it,
    // the push that reuses the slot returns item k to the producer, which
    // then owns (and frees) it; a slot never used returns a default T.
    SpscRing<int> ring{3};
    EXPECT_EQ(push_value(ring, 10), 0);
    EXPECT_EQ(push_value(ring, 11), 0);
    EXPECT_EQ(push_value(ring, 12), 0);
    EXPECT_EQ(pop_value(ring), 10);
    EXPECT_EQ(push_value(ring, 13), 10);
    EXPECT_EQ(pop_value(ring), 11);
    EXPECT_EQ(pop_value(ring), 12);
    EXPECT_EQ(push_value(ring, 14), 11);
    EXPECT_EQ(push_value(ring, 15), 12);
    EXPECT_EQ(pop_value(ring), 13);
    EXPECT_EQ(push_value(ring, 16), 13);
}

TEST(SpscRingTest, WraparoundPreservesFifo) {
    // A tiny ring cycled far past its capacity exercises every slot index
    // many times; order must survive the wraps.
    SpscRing<std::uint32_t> ring{3};
    std::uint32_t next_pop = 0;
    std::uint32_t next_push = 0;
    for (int cycle = 0; cycle < 1000; ++cycle) {
        for (;;) {
            std::uint32_t item = next_push;
            if (!ring.push(item)) break;
            ++next_push;
        }
        while (const std::uint32_t* out = ring.front()) {
            ASSERT_EQ(*out, next_pop);
            ring.pop();
            ++next_pop;
        }
    }
    EXPECT_EQ(next_pop, next_push);
    EXPECT_GT(next_pop, 2000u);
}

TEST(SpscRingTest, CarriesMoveOnlyPayloads) {
    SpscRing<std::unique_ptr<int>> ring{1};
    auto item = std::make_unique<int>(42);
    ASSERT_TRUE(ring.push(item));
    EXPECT_EQ(item, nullptr);  // the unused slot's default
    ASSERT_NE(ring.front(), nullptr);
    ASSERT_NE(*ring.front(), nullptr);
    EXPECT_EQ(**ring.front(), 42);
    ring.pop();
    item = std::make_unique<int>(43);
    ASSERT_TRUE(ring.push(item));
    ASSERT_NE(item, nullptr);
    EXPECT_EQ(*item, 42);  // ownership came back to the producer
}

// One real producer thread vs one real consumer thread across a deliberately
// tiny ring, so both the full-ring and empty-ring spins run constantly. The
// payload is heap-allocated by the producer, read in place by the consumer,
// and freed by the producer when the ring hands it back — the serve
// intake->shard ownership pattern. The consumer asserts the exact sequence
// 0,1,2,...; the producer asserts that each push returns the item from
// `capacity` pushes earlier. Any lost, duplicated, reordered, or early
// returned item fails; any unsynchronized slot access trips the TSan CI
// job. Threads come from exp::run_indexed: index 0 produces, index 1
// consumes, and jobs=2 guarantees they overlap.
TEST(SpscRingTest, ProducerConsumerStressKeepsSequence) {
    constexpr std::uint32_t kItems = 200000;
    constexpr std::uint32_t kCapacity = 4;
    SpscRing<std::unique_ptr<std::uint32_t>> ring{kCapacity};
    std::vector<std::string> errors = exp::run_indexed(2, 2, [&ring](std::size_t role) {
        if (role == 0) {
            for (std::uint32_t v = 0; v < kItems; ++v) {
                auto item = std::make_unique<std::uint32_t>(v);
                while (!ring.push(item)) exp::yield_thread();
                const bool handed_back = v >= kCapacity;
                if (handed_back != (item != nullptr) ||
                    (handed_back && *item != v - kCapacity)) {
                    throw std::runtime_error("wrong hand-back at " + std::to_string(v));
                }
            }
        } else {
            for (std::uint32_t expected = 0; expected < kItems; ++expected) {
                std::unique_ptr<std::uint32_t>* got = nullptr;
                while ((got = ring.front()) == nullptr) exp::yield_thread();
                if (*got == nullptr || **got != expected) {
                    throw std::runtime_error("ring out of order at " + std::to_string(expected));
                }
                ring.pop();
            }
        }
    });
    EXPECT_EQ(errors[0], "");
    EXPECT_EQ(errors[1], "");
    EXPECT_EQ(ring.front(), nullptr);
}

}  // namespace
}  // namespace arpsec::common
