/** @file Unit tests for the event queue kernel. */

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace sw;

TEST(EventQueue, StartsAtCycleZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunOneAdvancesClock)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(42, [&]() { fired = true; });
    EXPECT_TRUE(eq.runOne());
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.now(), 42u);
}

TEST(EventQueue, RunOneOnEmptyReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, EventsExecuteInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameCycleEventsExecuteInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Cycle seen = 0;
    eq.schedule(100, [&]() {
        eq.scheduleIn(50, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, SchedulingAtCurrentCycleIsAllowed)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&]() {
        eq.schedule(10, [&]() { ++count; });
    });
    eq.run();
    EXPECT_EQ(count, 1);
}

TEST(EventQueue, RunHonoursCycleLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.schedule(30, [&]() { ++fired; });
    eq.run(/*cycle_limit=*/20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunHonoursPredicate)
{
    EventQueue eq;
    int fired = 0;
    for (Cycle c = 1; c <= 10; ++c)
        eq.schedule(c, [&]() { ++fired; });
    eq.run(kCycleMax, [&]() { return fired >= 4; });
    EXPECT_EQ(fired, 4);
}

TEST(EventQueue, EventsExecutedCounts)
{
    EventQueue eq;
    for (Cycle c = 1; c <= 5; ++c)
        eq.schedule(c, []() {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 5u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 99u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.runOne();
    eq.schedule(20, []() {});
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.eventsExecuted(), 0u);
}

/**
 * Regression: reset() used to leave periodic-check subscriptions behind,
 * so a recycled queue kept firing hooks owned by the previous simulation.
 */
TEST(EventQueue, ResetDropsPeriodicCheckSubscriptions)
{
    EventQueue eq;
    int stale = 0;
    eq.addPeriodicCheck(1, [&](Cycle) { ++stale; });
    eq.addPeriodicCheck(1, [&](Cycle) { ++stale; });
    EXPECT_EQ(eq.numPeriodicChecks(), 2u);

    eq.reset();
    EXPECT_EQ(eq.numPeriodicChecks(), 0u);

    for (Cycle c = 1; c <= 10; ++c)
        eq.schedule(c, []() {});
    eq.run();
    EXPECT_EQ(stale, 0) << "stale sweep hooks fired after reset()";
}

TEST(EventQueue, StaleSweepIdAfterResetRemovesNothing)
{
    // Sweep ids are never reused, so a handle that outlived reset()
    // cannot unsubscribe a hook added afterwards.
    EventQueue eq;
    std::uint64_t stale = eq.addPeriodicCheck(5, [](Cycle) {});
    eq.reset();

    int fired = 0;
    eq.addPeriodicCheck(1, [&](Cycle) { ++fired; });
    eq.removePeriodicCheck(stale);
    EXPECT_EQ(eq.numPeriodicChecks(), 1u);

    for (Cycle c = 1; c <= 4; ++c)
        eq.schedule(c, []() {});
    eq.run();
    EXPECT_EQ(fired, 4);
}

TEST(EventQueue, ResetRecyclesSlabSlots)
{
    EventQueue eq;
    for (int round = 0; round < 3; ++round) {
        int n = 0;
        for (Cycle c = 1; c <= 100; ++c)
            eq.schedule(c, [&]() { ++n; });
        eq.run();
        EXPECT_EQ(n, 100);
        eq.reset();
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.now(), 0u);
    }
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    eq.runOne();
    EXPECT_DEATH(eq.schedule(50, []() {}), "scheduled in the past");
}

/** Dense stress: interleaved schedules keep strict ordering. */
TEST(EventQueue, StressOrderingInvariant)
{
    EventQueue eq;
    Cycle last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i) {
        Cycle when = Cycle((i * 7919) % 997);
        eq.schedule(when, [&, when]() {
            if (eq.now() < last)
                monotonic = false;
            last = eq.now();
            EXPECT_EQ(eq.now(), when);
        });
    }
    eq.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.eventsExecuted(), 1000u);
}

// ---------------------------------------------- timing wheel + overflow --

namespace {

constexpr Cycle kWindow = EventQueue::kWheelSlots;

/**
 * Differential harness: every event scheduled on the EventQueue is also
 * pushed onto a reference std::priority_queue ordered on (cycle, seq), and
 * every executed event must be the reference's top.
 */
class Differential
{
  public:
    explicit Differential(std::uint64_t seed) : rng(seed) {}

    /** Schedule one event @p delay cycles ahead that may spawn children. */
    void
    add(Cycle delay)
    {
        Cycle when = eq.now() + delay;
        std::uint64_t id = nextId++;
        ref.push(Ref{when, id});
        eq.schedule(when, [this, id]() { fire(id); });
    }

    /** A random delay: same-cycle, near, inside or beyond the window. */
    Cycle
    randomDelay()
    {
        switch (rng.range(8)) {
          case 0:
            return 0;
          case 1:
          case 2:
          case 3:
            return rng.range(64);
          case 4:
          case 5:
            return rng.range(kWindow);
          case 6:
            return kWindow - 2 + rng.range(4);   // straddle the edge
          default:
            return rng.range(3 * kWindow + 1);
        }
    }

    /** A burst of @p n events into one cycle. */
    void
    burst(std::uint64_t n)
    {
        Cycle delay = randomDelay();
        for (std::uint64_t i = 0; i < n; ++i)
            add(delay);
    }

    void
    checkDrainedTo(Cycle limit)
    {
        EXPECT_TRUE(ref.empty() || ref.top().when > limit)
            << "event at or before the limit left unexecuted";
        EXPECT_LE(eq.now(), limit);
        EXPECT_EQ(eq.pending(), ref.size());
    }

    EventQueue eq;
    Rng rng;
    std::uint64_t budget = 0;     ///< children handlers may still spawn
    std::uint64_t executed = 0;
    std::uint64_t mismatches = 0;

  private:
    struct Ref
    {
        Cycle when;
        std::uint64_t seq;   ///< ids are issued in scheduling order

        bool
        operator>(const Ref &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    void
    fire(std::uint64_t id)
    {
        ++executed;
        if (ref.empty() || ref.top().seq != id ||
            ref.top().when != eq.now()) {
            if (mismatches++ == 0) {
                ADD_FAILURE() << "event " << id << " ran at cycle "
                              << eq.now() << "; reference expected "
                              << (ref.empty() ? 0 : ref.top().seq)
                              << " at cycle "
                              << (ref.empty() ? 0 : ref.top().when);
            }
        }
        if (!ref.empty())
            ref.pop();
        // Schedule from inside the handler: 0-3 children, some bursts.
        std::uint64_t children = rng.range(4);
        for (std::uint64_t c = 0; c < children && budget > 0; ++c) {
            --budget;
            if (rng.range(16) == 0)
                burst(1 + rng.range(6));
            else
                add(randomDelay());
        }
    }

    std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref;
    std::uint64_t nextId = 0;
};

} // namespace

class EventQueueDifferential : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventQueueDifferential, MatchesReferenceOrderAcrossStopsAndResumes)
{
    Differential d(GetParam());
    d.budget = 60000;
    for (int i = 0; i < 64; ++i)
        d.add(d.randomDelay());
    // Alternate bounded runs (stopping mid-stream, sometimes inside a
    // same-cycle burst's cycle) with external schedules between them.
    while (!d.eq.empty()) {
        Cycle limit = d.eq.now() + d.rng.range(2 * kWindow);
        d.eq.run(limit);
        d.checkDrainedTo(limit);
        for (std::uint64_t n = d.rng.range(4); n > 0; --n)
            d.add(d.randomDelay());
        if (d.rng.range(4) == 0)
            d.burst(2 + d.rng.range(5));
        if (d.mismatches)
            break;
    }
    EXPECT_EQ(d.mismatches, 0u);
    EXPECT_GT(d.executed, 60000u);
    EXPECT_EQ(d.eq.eventsExecuted(), d.executed);
}

TEST_P(EventQueueDifferential, MatchesReferenceOrderUnderRunOneAndPredicate)
{
    Differential d(GetParam() ^ 0x5a5a5a5aull);
    d.budget = 20000;
    for (int i = 0; i < 32; ++i)
        d.add(d.randomDelay());
    std::uint64_t stopAt = 0;
    while (!d.eq.empty() && !d.mismatches) {
        stopAt = d.executed + 1 + d.rng.range(200);
        d.eq.run(kCycleMax, [&]() { return d.executed >= stopAt; });
        for (std::uint64_t n = d.rng.range(3); n > 0; --n) {
            if (d.eq.runOne())
                d.add(d.randomDelay());
        }
    }
    EXPECT_EQ(d.mismatches, 0u);
    EXPECT_TRUE(d.eq.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential,
                         ::testing::Values(1u, 2u, 3u, 42u));

TEST(EventQueueWheel, OverflowEventRunsBeforeLaterDirectInsertSameCycle)
{
    EventQueue eq;
    std::vector<int> order;
    const Cycle target = kWindow + 10;
    // Scheduled from cycle 0: beyond the window, goes to the overflow heap.
    eq.schedule(target, [&]() { order.push_back(1); });
    eq.schedule(target, [&]() { order.push_back(2); });
    // Once the clock reaches 11 the target is inside the window, so this
    // insert goes straight into the target's bucket; the overflow events
    // must already be there ahead of it.
    eq.schedule(11, [&]() {
        eq.schedule(target, [&]() { order.push_back(3); });
    });
    // Direct insert in the very cycle the migration happens at.
    eq.schedule(11, [&]() {
        eq.schedule(target, [&]() { order.push_back(4); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), target);
}

TEST(EventQueueWheel, EventExactlyOneWindowAheadTakesTheOverflowPath)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(kWindow - 1, [&]() { order.push_back(1); });   // wheel
    eq.schedule(kWindow, [&]() { order.push_back(2); });       // overflow
    eq.schedule(kWindow - 1, [&]() {
        // Now the window ends at 2*kWindow - 1: this one is direct.
        eq.schedule(kWindow, [&]() { order.push_back(3); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueWheel, OverflowOnlyQueueJumpsTheClock)
{
    EventQueue eq;
    std::vector<Cycle> seen;
    eq.schedule(10 * kWindow, [&]() { seen.push_back(eq.now()); });
    eq.schedule(5 * kWindow + 3, [&]() { seen.push_back(eq.now()); });
    eq.schedule(5 * kWindow + 3, [&]() { seen.push_back(eq.now()); });
    EXPECT_EQ(eq.pending(), 3u);

    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.now(), 5 * kWindow + 3);
    EXPECT_EQ(eq.pending(), 2u);
    // A bounded run short of the far event leaves the clock alone.
    eq.run(/*cycle_limit=*/9 * kWindow);
    EXPECT_EQ(eq.now(), 5 * kWindow + 3);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(seen, (std::vector<Cycle>{5 * kWindow + 3, 5 * kWindow + 3,
                                        10 * kWindow}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueWheel, BucketsWrapAroundTheWheel)
{
    EventQueue eq;
    std::vector<Cycle> seen;
    // Start near the end of the wheel so the window wraps to bucket 0.
    eq.schedule(kWindow - 3, [&]() {
        for (Cycle d : {Cycle(kWindow - 1), Cycle(5), Cycle(2), Cycle(0)})
            eq.scheduleIn(d, [&]() { seen.push_back(eq.now()); });
    });
    eq.run();
    EXPECT_EQ(seen, (std::vector<Cycle>{kWindow - 3, kWindow - 1,
                                        kWindow + 2, 2 * kWindow - 4}));
}

TEST(EventQueueWheel, ResetLeavesTheWheelAndOverflowEmpty)
{
    EventQueue eq;
    int stale = 0;
    for (Cycle c = 0; c < 3 * kWindow; c += 97)
        eq.schedule(c, [&]() { ++stale; });
    eq.runOne();
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());

    // New events in the buckets the dropped ones occupied: only they run.
    int fresh = 0;
    for (Cycle c = 0; c < 3 * kWindow; c += 97)
        eq.schedule(c, [&]() { ++fresh; });
    stale = 0;
    eq.run();
    EXPECT_EQ(stale, 0);
    EXPECT_EQ(fresh, int((3 * kWindow + 96) / 97));
}

TEST(EventQueueWheel, RestoreClockResumesOnAnEmptyWheel)
{
    EventQueue eq;
    eq.schedule(7, []() {});
    eq.schedule(2 * kWindow, []() {});
    eq.run();
    ASSERT_TRUE(eq.empty());

    // Jump far ahead, to a position whose bucket index differs from now.
    const Cycle resume = 1000 * kWindow + 123;
    eq.restoreClock(resume, eq.seqCounter() + 5, 2);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), resume);

    std::vector<Cycle> seen;
    eq.scheduleIn(kWindow + 1, [&]() { seen.push_back(eq.now()); });
    eq.scheduleIn(0, [&]() { seen.push_back(eq.now()); });
    eq.scheduleIn(1, [&]() { seen.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(seen, (std::vector<Cycle>{resume, resume + 1,
                                        resume + kWindow + 1}));
    EXPECT_EQ(eq.eventsExecuted(), 5u);
}
