#include <gtest/gtest.h>

#include "sim/event_scheduler.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/pcap_tap.hpp"
#include "telemetry/metrics.hpp"

namespace arpsec::sim {
namespace {

using common::Duration;
using common::SimTime;

// ---------------------------------------------------------------------------
// EventScheduler
// ---------------------------------------------------------------------------

TEST(EventSchedulerTest, FiresInTimeOrder) {
    EventScheduler sched;
    std::vector<int> order;
    sched.schedule_at(SimTime{300}, [&] { order.push_back(3); });
    sched.schedule_at(SimTime{100}, [&] { order.push_back(1); });
    sched.schedule_at(SimTime{200}, [&] { order.push_back(2); });
    sched.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sched.now(), SimTime{300});
}

TEST(EventSchedulerTest, TiesFireInScheduleOrder) {
    EventScheduler sched;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sched.schedule_at(SimTime{42}, [&order, i] { order.push_back(i); });
    }
    sched.run_all();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventSchedulerTest, ScheduleAfterUsesCurrentTime) {
    EventScheduler sched;
    SimTime fired;
    sched.schedule_at(SimTime{1000}, [&] {
        sched.schedule_after(Duration{500}, [&] { fired = sched.now(); });
    });
    sched.run_all();
    EXPECT_EQ(fired, SimTime{1500});
}

TEST(EventSchedulerTest, CancelPreventsExecution) {
    EventScheduler sched;
    bool fired = false;
    const EventId id = sched.schedule_at(SimTime{100}, [&] { fired = true; });
    EXPECT_TRUE(sched.cancel(id));
    EXPECT_FALSE(sched.cancel(id));  // second cancel is a no-op
    sched.run_all();
    EXPECT_FALSE(fired);
}

TEST(EventSchedulerTest, CancelUnknownIdIsNoop) {
    EventScheduler sched;
    EXPECT_FALSE(sched.cancel(0));
    EXPECT_FALSE(sched.cancel(9999));
}

TEST(EventSchedulerTest, RunUntilStopsAtDeadline) {
    EventScheduler sched;
    int fired = 0;
    sched.schedule_at(SimTime{100}, [&] { ++fired; });
    sched.schedule_at(SimTime{200}, [&] { ++fired; });
    sched.schedule_at(SimTime{300}, [&] { ++fired; });
    sched.run_until(SimTime{200});
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sched.now(), SimTime{200});
    sched.run_until(SimTime{400});
    EXPECT_EQ(fired, 3);
}

TEST(EventSchedulerTest, EventsInPastFireNow) {
    EventScheduler sched;
    sched.schedule_at(SimTime{100}, [] {});
    sched.run_all();
    SimTime fired;
    sched.schedule_at(SimTime{50}, [&] { fired = sched.now(); });  // in the past
    sched.run_all();
    EXPECT_EQ(fired, SimTime{100});  // clamped to now
}

TEST(EventSchedulerTest, SelfReschedulingRespectsRunUntil) {
    EventScheduler sched;
    int count = 0;
    std::function<void()> tick = [&] {
        ++count;
        sched.schedule_after(Duration{10}, tick);
    };
    sched.schedule_at(SimTime{0}, tick);
    sched.run_until(SimTime{95});
    EXPECT_EQ(count, 10);  // t=0,10,...,90
}

TEST(EventSchedulerTest, PendingAndExecutedCounters) {
    EventScheduler sched;
    const EventId a = sched.schedule_at(SimTime{10}, [] {});
    sched.schedule_at(SimTime{20}, [] {});
    EXPECT_EQ(sched.pending(), 2u);
    sched.cancel(a);
    EXPECT_EQ(sched.pending(), 1u);
    sched.run_all();
    EXPECT_EQ(sched.pending(), 0u);
    EXPECT_EQ(sched.executed(), 1u);
}

TEST(EventSchedulerTest, RunAllThrowsOnLivelock) {
    EventScheduler sched;
    std::function<void()> loop = [&] { sched.schedule_after(Duration{1}, loop); };
    sched.schedule_at(SimTime{0}, loop);
    EXPECT_THROW(sched.run_all(1000), std::runtime_error);
}

// ---------------------------------------------------------------------------
// run_until fast path + lazy cancelled-purge (the replay hot path: one
// run_until per trace frame, almost always with nothing due)
// ---------------------------------------------------------------------------

TEST(EventSchedulerTest, RunUntilFastPathAdvancesTimeOnEmptyQueue) {
    EventScheduler sched;
    // Empty queue: the inline fast path must only advance the clock.
    sched.run_until(SimTime{500});
    EXPECT_EQ(sched.now(), SimTime{500});
    EXPECT_EQ(sched.executed(), 0u);
    // Deadline behind now(): time never moves backwards.
    sched.run_until(SimTime{100});
    EXPECT_EQ(sched.now(), SimTime{500});
}

TEST(EventSchedulerTest, RunUntilFastPathSkipsFutureHead) {
    EventScheduler sched;
    int fired = 0;
    sched.schedule_at(SimTime{1000}, [&] { ++fired; });
    // Head past the deadline: fast path advances the clock, fires nothing,
    // and the event must still be live afterwards.
    for (int t = 1; t <= 9; ++t) sched.run_until(SimTime{t * 100});
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(sched.now(), SimTime{900});
    EXPECT_EQ(sched.pending(), 1u);
    sched.run_until(SimTime{1000});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sched.now(), SimTime{1000});
}

TEST(EventSchedulerTest, RunUntilPurgesCancelledStormLazily) {
    EventScheduler sched;
    // A storm of events all cancelled before the run: cancellation is lazy
    // (ids parked in a set, queue untouched), so pending() drops to zero
    // immediately while the queue still physically holds every entry.
    std::vector<EventId> ids;
    bool fired = false;
    for (int i = 0; i < 1000; ++i) {
        ids.push_back(
            sched.schedule_at(SimTime{100 + i}, [&fired] { fired = true; }));
    }
    for (const EventId id : ids) ASSERT_TRUE(sched.cancel(id));
    EXPECT_EQ(sched.pending(), 0u);
    // The run must purge every tombstone without executing anything, and
    // the purge must actually drain the cancelled set (so later cancels of
    // new ids keep O(1) behavior, and pending() stays exact).
    sched.run_until(SimTime{5000});
    EXPECT_FALSE(fired);
    EXPECT_EQ(sched.executed(), 0u);
    EXPECT_EQ(sched.now(), SimTime{5000});
    EXPECT_EQ(sched.pending(), 0u);
    // A fresh event after the storm fires normally.
    int after = 0;
    sched.schedule_at(SimTime{6000}, [&after] { ++after; });
    sched.run_until(SimTime{6000});
    EXPECT_EQ(after, 1);
}

TEST(EventSchedulerTest, RunUntilSkipsCancelledHeadButFiresLiveTail) {
    EventScheduler sched;
    std::vector<int> order;
    const EventId dead1 = sched.schedule_at(SimTime{10}, [&] { order.push_back(-1); });
    sched.schedule_at(SimTime{20}, [&] { order.push_back(1); });
    const EventId dead2 = sched.schedule_at(SimTime{30}, [&] { order.push_back(-2); });
    sched.schedule_at(SimTime{40}, [&] { order.push_back(2); });
    sched.cancel(dead1);
    sched.cancel(dead2);
    // Cancelled entries interleaved with live ones: the slow path must step
    // over each tombstone and fire exactly the live events, in order.
    sched.run_until(SimTime{35});
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(sched.now(), SimTime{35});
    sched.run_until(SimTime{100});
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventSchedulerTest, EqualTimestampsFireInScheduleOrderThroughRunUntil) {
    EventScheduler sched;
    // Same deadline tie-break as run_all, but specifically through
    // run_until's slow path, with a cancelled entry punched into the middle
    // of the tie group: survivors keep FIFO order.
    std::vector<int> order;
    sched.schedule_at(SimTime{50}, [&] { order.push_back(0); });
    const EventId dead = sched.schedule_at(SimTime{50}, [&] { order.push_back(99); });
    sched.schedule_at(SimTime{50}, [&] { order.push_back(1); });
    sched.schedule_at(SimTime{50}, [&] { order.push_back(2); });
    sched.cancel(dead);
    sched.run_until(SimTime{50});
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sched.executed(), 3u);
}

TEST(EventSchedulerTest, CancelAfterRunUntilPurgeStillWorks) {
    EventScheduler sched;
    // The purge erases fired-past tombstones from the cancelled set; a
    // cancel issued *after* a purge for a still-pending event must behave
    // exactly like a fresh cancel (regression guard for the erase logic).
    const EventId early = sched.schedule_at(SimTime{10}, [] {});
    sched.cancel(early);
    sched.run_until(SimTime{20});  // purges `early`'s tombstone
    bool fired = false;
    const EventId late = sched.schedule_at(SimTime{30}, [&fired] { fired = true; });
    EXPECT_TRUE(sched.cancel(late));
    sched.run_until(SimTime{100});
    EXPECT_FALSE(fired);
    EXPECT_EQ(sched.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Network / links
// ---------------------------------------------------------------------------

/// Sink node that records received frames and timestamps.
class RecorderNode final : public Node {
public:
    explicit RecorderNode(std::string name) : Node(std::move(name)) {}
    void on_frame(PortId port, const wire::FrameView& view) override {
        received.push_back({network().now(), port, view.frame()});
    }
    struct Rx {
        SimTime at;
        PortId port;
        wire::EthernetFrame frame;
    };
    std::vector<Rx> received;
};

/// Node that sends a frame at start().
class SenderNode final : public Node {
public:
    SenderNode(std::string name, wire::EthernetFrame frame)
        : Node(std::move(name)), frame_(std::move(frame)) {}
    void start() override { send(0, frame_); }
    void on_frame(PortId, const wire::FrameView&) override {}

private:
    wire::EthernetFrame frame_;
};

wire::EthernetFrame make_frame(std::size_t payload = 100) {
    wire::EthernetFrame f;
    f.dst = wire::MacAddress::local(2);
    f.src = wire::MacAddress::local(1);
    f.ether_type = wire::EtherType::kIpv4;
    f.payload.assign(payload, 0xEE);
    return f;
}

TEST(NetworkTest, DeliversWithSerializationAndPropagationDelay) {
    Network net(1);
    auto& rx = net.emplace_node<RecorderNode>("rx");
    auto& tx = net.emplace_node<SenderNode>("tx", make_frame(100));
    LinkConfig link;
    link.latency = Duration::micros(5);
    link.bandwidth_bps = 100'000'000;
    net.connect({tx.id(), 0}, {rx.id(), 0}, link);
    net.start_all();
    net.scheduler().run_all();
    ASSERT_EQ(rx.received.size(), 1u);
    // 114 bytes at 100 Mbit/s = 9.12us tx + 5us latency.
    const std::int64_t expected = 114 * 8 * 10 + 5'000;
    EXPECT_EQ(rx.received[0].at.nanos(), expected);
}

TEST(NetworkTest, BackToBackFramesQueueFifo) {
    Network net(1);
    auto& rx = net.emplace_node<RecorderNode>("rx");

    class BurstNode final : public Node {
    public:
        explicit BurstNode(std::string name) : Node(std::move(name)) {}
        void start() override {
            for (int i = 0; i < 3; ++i) send(0, make_frame(100));
        }
        void on_frame(PortId, const wire::FrameView&) override {}
    };
    auto& tx = net.emplace_node<BurstNode>("tx");
    net.connect({tx.id(), 0}, {rx.id(), 0});
    net.start_all();
    net.scheduler().run_all();
    ASSERT_EQ(rx.received.size(), 3u);
    // Arrival spacing equals the serialization time (9.12us at 100 Mbit/s).
    const std::int64_t tx_ns = 114 * 8 * 10;
    EXPECT_EQ((rx.received[1].at - rx.received[0].at).count(), tx_ns);
    EXPECT_EQ((rx.received[2].at - rx.received[1].at).count(), tx_ns);
}

TEST(NetworkTest, UnpluggedPortDropsSilently) {
    Network net(1);
    auto& tx = net.emplace_node<SenderNode>("tx", make_frame());
    (void)tx;
    net.start_all();
    net.scheduler().run_all();  // no crash, nothing delivered
    EXPECT_EQ(net.counters().frames, 0u);
}

TEST(NetworkTest, CountersTrackTraffic) {
    Network net(1);
    auto& rx = net.emplace_node<RecorderNode>("rx");
    wire::EthernetFrame arp_frame = make_frame(28);
    arp_frame.ether_type = wire::EtherType::kArp;
    auto& tx = net.emplace_node<SenderNode>("tx", arp_frame);
    net.connect({tx.id(), 0}, {rx.id(), 0});
    net.start_all();
    net.scheduler().run_all();
    EXPECT_EQ(net.counters().frames, 1u);
    EXPECT_EQ(net.counters().arp_frames, 1u);
    EXPECT_EQ(net.counters().ipv4_frames, 0u);
    EXPECT_EQ(net.counters().bytes, 60u);  // padded to minimum
    EXPECT_EQ(net.counters().serializations, 1u);  // one origin frame
}

TEST(NetworkTest, LossyLinkDropsSomeFrames) {
    Network net(7);
    auto& rx = net.emplace_node<RecorderNode>("rx");

    class Burst100 final : public Node {
    public:
        explicit Burst100(std::string name) : Node(std::move(name)) {}
        void start() override {
            for (int i = 0; i < 200; ++i) {
                network().scheduler().schedule_after(Duration::micros(100 * i),
                                                     [this] { send(0, make_frame()); });
            }
        }
        void on_frame(PortId, const wire::FrameView&) override {}
    };
    auto& tx = net.emplace_node<Burst100>("tx");
    LinkConfig lossy;
    lossy.loss_probability = 0.3;
    net.connect({tx.id(), 0}, {rx.id(), 0}, lossy);
    net.start_all();
    net.scheduler().run_all();
    EXPECT_GT(net.counters().dropped_frames, 20u);
    EXPECT_LT(net.counters().dropped_frames, 120u);
    EXPECT_EQ(rx.received.size(), 200u - net.counters().dropped_frames);
}

// Drop accounting must balance exactly (sent == delivered + dropped) and the
// seeded drop count must sit near the configured loss probability. With
// p = 0.25 over 2000 frames the binomial std-dev is ~19.4, so +/-100 is a
// > 5-sigma band: deterministic for any fixed seed, yet tight enough to
// catch an off-by-rate bug in the loss draw.
TEST(NetworkTest, DroppedFrameAccountingMatchesLossProbability) {
    constexpr std::size_t kFrames = 2000;
    constexpr double kLoss = 0.25;

    Network net(97);
    telemetry::MetricsRegistry registry;
    net.attach_metrics(registry);
    auto& rx = net.emplace_node<RecorderNode>("rx");

    class BurstNode final : public Node {
    public:
        explicit BurstNode(std::string name) : Node(std::move(name)) {}
        void start() override {
            for (std::size_t i = 0; i < kFrames; ++i) {
                network().scheduler().schedule_after(Duration::micros(50 * i),
                                                     [this] { send(0, make_frame()); });
            }
        }
        void on_frame(PortId, const wire::FrameView&) override {}
    };
    auto& tx = net.emplace_node<BurstNode>("tx");
    LinkConfig lossy;
    lossy.loss_probability = kLoss;
    net.connect({tx.id(), 0}, {rx.id(), 0}, lossy);
    net.start_all();
    net.scheduler().run_all();

    const auto& c = net.counters();
    EXPECT_EQ(c.frames, kFrames);  // transmit attempts, drops included
    EXPECT_EQ(rx.received.size() + c.dropped_frames, kFrames);

    const auto expected = static_cast<double>(kFrames) * kLoss;
    EXPECT_NEAR(static_cast<double>(c.dropped_frames), expected, 100.0);

    // The telemetry counters mirror TrafficCounters one-for-one. Every
    // frame here is an origin transmit, so serializations == frames even
    // though some are dropped downstream (the drop happens after the
    // one-and-only serialization).
    EXPECT_EQ(registry.find_counter("sim.net.frames")->value(), c.frames);
    EXPECT_EQ(registry.find_counter("sim.net.dropped_frames")->value(), c.dropped_frames);
    EXPECT_EQ(registry.find_counter("sim.net.bytes")->value(), c.bytes);
    EXPECT_EQ(registry.find_counter("sim.net.serializations")->value(), c.serializations);
    EXPECT_EQ(c.serializations, kFrames);
}

TEST(NetworkTest, DuplicateConnectThrows) {
    Network net(1);
    auto& a = net.emplace_node<RecorderNode>("a");
    auto& b = net.emplace_node<RecorderNode>("b");
    auto& c = net.emplace_node<RecorderNode>("c");
    net.connect({a.id(), 0}, {b.id(), 0});
    EXPECT_THROW(net.connect({a.id(), 0}, {c.id(), 0}), std::logic_error);
}

TEST(NetworkTest, DeterministicAcrossRuns) {
    const auto run_once = [] {
        Network net(123);
        auto& rx = net.emplace_node<RecorderNode>("rx");
        auto& tx = net.emplace_node<SenderNode>("tx", make_frame(321));
        net.connect({tx.id(), 0}, {rx.id(), 0});
        net.start_all();
        net.scheduler().run_all();
        return rx.received.at(0).at.nanos();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(NetworkTest, CaptureTapSeesRawBytes) {
    class CountingTap final : public CaptureTap {
    public:
        void on_capture(SimTime, Endpoint, Endpoint, const wire::FrameView& view) override {
            ++frames;
            bytes += view.bytes().size();
        }
        int frames = 0;
        std::size_t bytes = 0;
    };
    Network net(1);
    CountingTap tap;
    net.add_tap(&tap);
    auto& rx = net.emplace_node<RecorderNode>("rx");
    auto& tx = net.emplace_node<SenderNode>("tx", make_frame(100));
    net.connect({tx.id(), 0}, {rx.id(), 0});
    net.start_all();
    net.scheduler().run_all();
    EXPECT_EQ(tap.frames, 1);
    EXPECT_EQ(tap.bytes, 114u);
}

TEST(PcapTapTest, RecordsTransmittedFrames) {
    const std::string path = ::testing::TempDir() + "/tap_test.pcap";
    {
        Network net(1);
        PcapTap tap(wire::PcapWriter::open(path).value());
        net.add_tap(&tap);
        auto& rx = net.emplace_node<RecorderNode>("rx");
        auto& tx = net.emplace_node<SenderNode>("tx", make_frame());
        net.connect({tx.id(), 0}, {rx.id(), 0});
        net.start_all();
        net.scheduler().run_all();
        EXPECT_EQ(tap.frames(), 1u);
        EXPECT_TRUE(tap.close().ok());
    }
    std::remove(path.c_str());
}

}  // namespace
}  // namespace arpsec::sim
