// Tests for the bounded SPSC ring (common/ring.hpp): FIFO order, the
// capacity/full/empty boundary conditions the serve intake->shard
// backpressure rides on, index wraparound, move-only payloads, and a
// producer/consumer stress run that the TSan CI job executes with real
// threads (spawned through exp::run_indexed — the sanctioned thread entry
// point, so this file stays clean under the no-threads-in-sim lint rule).

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

TEST(SpscRingTest, CapacityIsAtLeastRequested) {
    for (std::size_t req = 1; req <= 64; ++req) {
        SpscRing<int> ring{req};
        EXPECT_GE(ring.capacity(), req) << "requested " << req;
    }
    // Power-of-two storage with one sacrificial slot: asking for 8 rounds
    // the backing array to 16 and yields 15 usable slots.
    EXPECT_EQ(SpscRing<int>{8}.capacity(), 15u);
    EXPECT_EQ(SpscRing<int>{3}.capacity(), 3u);
}

TEST(SpscRingTest, StartsEmpty) {
    SpscRing<int> ring{4};
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.full());
    EXPECT_EQ(ring.size(), 0u);
    int out = -1;
    EXPECT_FALSE(ring.try_pop(out));
    EXPECT_EQ(out, -1);  // pop must leave `out` untouched on failure
}

TEST(SpscRingTest, FifoOrder) {
    SpscRing<int> ring{8};
    for (int v = 0; v < 5; ++v) ASSERT_TRUE(ring.try_push(v));
    for (int v = 0; v < 5; ++v) {
        int out = -1;
        ASSERT_TRUE(ring.try_pop(out));
        EXPECT_EQ(out, v);
    }
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, FullRejectsPushUntilPopped) {
    SpscRing<int> ring{2};  // rounds to 4 slots -> 3 usable
    const std::size_t cap = ring.capacity();
    for (std::size_t i = 0; i < cap; ++i) {
        ASSERT_TRUE(ring.try_push(static_cast<int>(i))) << "push " << i;
    }
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.size(), cap);
    EXPECT_FALSE(ring.try_push(99));  // bounded: the full ring is backpressure
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, 0);
    EXPECT_FALSE(ring.full());
    EXPECT_TRUE(ring.try_push(99));  // one pop frees exactly one slot
    EXPECT_TRUE(ring.full());
}

TEST(SpscRingTest, DrainingReportsEmpty) {
    SpscRing<int> ring{4};
    ASSERT_TRUE(ring.try_push(7));
    int out = 0;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRingTest, WraparoundPreservesFifo) {
    // A tiny ring cycled far past its capacity exercises every head/tail
    // mask combination; order must survive the wraps.
    SpscRing<std::uint32_t> ring{2};
    std::uint32_t next_pop = 0;
    std::uint32_t next_push = 0;
    for (int cycle = 0; cycle < 1000; ++cycle) {
        while (ring.try_push(std::uint32_t{next_push})) ++next_push;
        std::uint32_t out = 0;
        while (ring.try_pop(out)) {
            ASSERT_EQ(out, next_pop);
            ++next_pop;
        }
    }
    EXPECT_EQ(next_pop, next_push);
    EXPECT_GT(next_pop, 2000u);
}

TEST(SpscRingTest, CarriesMoveOnlyPayloads) {
    SpscRing<std::unique_ptr<int>> ring{4};
    ASSERT_TRUE(ring.try_push(std::make_unique<int>(42)));
    std::unique_ptr<int> out;
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(*out, 42);
}

TEST(SpscRingTest, CopyPushLeavesSourceIntact) {
    SpscRing<std::vector<int>> ring{4};
    const std::vector<int> item{1, 2, 3};
    ASSERT_TRUE(ring.try_push(item));
    EXPECT_EQ(item.size(), 3u);
    std::vector<int> out;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, item);
}

// One real producer thread vs one real consumer thread across a deliberately
// tiny ring, so both the full-ring and empty-ring spins run constantly. The
// consumer asserts the exact sequence 0,1,2,... — any lost, duplicated, or
// reordered item fails; any unsynchronized slot access trips the TSan CI
// job. Threads come from exp::run_indexed: index 0 produces, index 1
// consumes, and jobs=2 guarantees they overlap.
TEST(SpscRingTest, ProducerConsumerStressKeepsSequence) {
    constexpr std::uint32_t kItems = 200000;
    SpscRing<std::uint32_t> ring{4};
    std::vector<std::string> errors = exp::run_indexed(2, 2, [&ring](std::size_t role) {
        if (role == 0) {
            for (std::uint32_t v = 0; v < kItems; ++v) {
                while (!ring.try_push(std::uint32_t{v})) exp::yield_thread();
            }
        } else {
            for (std::uint32_t expected = 0; expected < kItems; ++expected) {
                std::uint32_t got = 0;
                while (!ring.try_pop(got)) exp::yield_thread();
                if (got != expected) {
                    throw std::runtime_error("ring out of order at " + std::to_string(expected));
                }
            }
        }
    });
    EXPECT_EQ(errors[0], "");
    EXPECT_EQ(errors[1], "");
    EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace arpsec::common
