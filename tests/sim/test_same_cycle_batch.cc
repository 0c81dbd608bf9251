/**
 * @file
 * Unit tests for same-cycle batches (sim/same_cycle_batch.hh): a fused
 * batch runs its handlers exactly where their own events would have run,
 * and a whole machine runs the same handlers with fewer dispatches.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/softwalker.hh"
#include "gpu/gpu.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/same_cycle_batch.hh"
#include "test_util.hh"
#include "workload/benchmarks.hh"

using namespace sw;

namespace {

/**
 * A component with a fixed latency whose handler logs the value it was
 * called with.  Fused, its calls go through a SameCycleBatch; unfused,
 * each call schedules its own event (the reference behaviour).
 */
class Component
{
  public:
    Component(EventQueue &eq, std::vector<int> &log, Cycle latency,
              bool fused = true)
        : eventq(eq), log(log), latency(latency), fused(fused),
          batch(eq, [this](const int &value) { handle(value); })
    {
    }

    void
    access(int value)
    {
        if (fused)
            batch.add(eventq.now() + latency, value);
        else
            eventq.scheduleIn(latency, [this, value]() { handle(value); });
    }

    /** A handled @p value calls access(value * 10) from its handler. */
    int reenterOn = -1;
    /** Called after each handled value (the differential's actions). */
    std::function<void(int)> then;

  private:
    void
    handle(int value)
    {
        log.push_back(value);
        if (value == reenterOn)
            access(value * 10);
        if (then)
            then(value);
    }

    EventQueue &eventq;
    std::vector<int> &log;
    Cycle latency;
    bool fused;
    SameCycleBatch<int> batch;
};

} // namespace

TEST(SameCycleBatch, ConsecutiveCallsFromAHandlerShareOneDispatch)
{
    EventQueue eq;
    std::vector<int> log;
    Component c(eq, log, 4);
    eq.schedule(1, [&]() {
        c.access(1);
        c.access(2);
        c.access(3);
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_EQ(eq.eventsExecuted(), 2u);
    EXPECT_EQ(eq.fusedEvents(), 2u);
    // A join takes the sequence number its event would have had.
    EXPECT_EQ(eq.seqCounter(), 4u);
}

TEST(SameCycleBatch, InterveningScheduleBlocksAJoin)
{
    EventQueue eq;
    std::vector<int> log;
    Component c(eq, log, 4);
    eq.schedule(0, [&]() {
        c.access(1);
        eq.scheduleIn(4, [&]() { log.push_back(99); });
        c.access(2);
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 99, 2}));
    EXPECT_EQ(eq.fusedEvents(), 0u);
    EXPECT_EQ(eq.eventsExecuted(), 4u);
}

TEST(SameCycleBatch, SameCycleBatchesSplitByAnotherEventDrainInSeqOrder)
{
    EventQueue eq;
    std::vector<int> log;
    Component c(eq, log, 4);
    eq.schedule(0, [&]() {
        c.access(1);
        c.access(2);
        eq.scheduleIn(4, [&]() { log.push_back(99); });
        c.access(3);
        c.access(4);
    });
    eq.run();
    // Each batch drains only its own entries: 3 and 4 wait for the
    // second batch's event, behind the one scheduled between them.
    EXPECT_EQ(log, (std::vector<int>{1, 2, 99, 3, 4}));
    EXPECT_EQ(eq.eventsExecuted(), 4u);
    EXPECT_EQ(eq.fusedEvents(), 2u);
}

TEST(SameCycleBatch, CallsFromOutsideAHandlerNeverJoin)
{
    EventQueue eq;
    std::vector<int> log;
    Component c(eq, log, 4);
    c.access(1);
    c.access(2);
    EXPECT_EQ(eq.pending(), 2u);
    ASSERT_TRUE(eq.runOne());
    EXPECT_EQ(log, (std::vector<int>{1}));
    ASSERT_TRUE(eq.runOne());
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.fusedEvents(), 0u);
}

TEST(SameCycleBatch, SweepHookSeesTheStateAfterTheFirstEntry)
{
    EventQueue eq;
    std::vector<int> log;
    Component c(eq, log, 10);
    std::vector<std::size_t> seen;
    eq.addPeriodicCheck(10, [&](Cycle) { seen.push_back(log.size()); });
    eq.schedule(0, [&]() {
        c.access(1);
        c.access(2);
        c.access(3);
    });
    eq.run();
    // Unfused, the hook would fire after the first event at cycle 10.
    EXPECT_EQ(seen, (std::vector<std::size_t>{1}));
    EXPECT_EQ(eq.fusedEvents(), 2u);
}

TEST(SameCycleBatch, RunOneRunsTheWholeBatchAndNoSweepHook)
{
    EventQueue eq;
    std::vector<int> log;
    Component c(eq, log, 10);
    int sweeps = 0;
    eq.addPeriodicCheck(1, [&](Cycle) { ++sweeps; });
    eq.schedule(0, [&]() {
        c.access(1);
        c.access(2);
    });
    ASSERT_TRUE(eq.runOne());
    ASSERT_TRUE(eq.runOne());
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(sweeps, 0);
}

TEST(SameCycleBatch, ZeroLatencyReentrantCallLandsInANewBatch)
{
    EventQueue eq;
    std::vector<int> log;
    Component c(eq, log, 0);
    c.reenterOn = 1;
    eq.schedule(5, [&]() {
        c.access(1);
        c.access(2);
    });
    eq.run();
    // Unfused, the re-entrant call's event comes after 2's.
    EXPECT_EQ(log, (std::vector<int>{1, 2, 10}));
    EXPECT_EQ(eq.eventsExecuted(), 3u);
    EXPECT_EQ(eq.fusedEvents(), 1u);
}

/**
 * Differential: random programs of component calls, plain events and
 * re-entrant calls run in the same order, with the same number of
 * handlers and the same sequence counter, fused and unfused.
 */
TEST(SameCycleBatch, RandomProgramsRunInTheUnfusedOrder)
{
    struct Outcome
    {
        std::vector<int> log;
        std::uint64_t handlers;
        std::uint64_t seq;
        std::uint64_t dispatches;
    };
    auto runProgram = [](std::uint64_t seed, bool fused) {
        EventQueue eq;
        std::vector<int> log;
        Component a(eq, log, 3, fused);
        Component b(eq, log, 0, fused);
        int next = 0;
        // Every handled value draws its follow-up actions from its own
        // value, so both runs do the same thing at the same point.
        auto act = [&](int value) {
            Rng rng(seed * 1000003 + std::uint64_t(value));
            std::uint64_t actions = rng.range(4);
            for (std::uint64_t i = 0; i < actions && next < 3000; ++i) {
                switch (rng.range(4)) {
                case 0:
                    a.access(++next);
                    break;
                case 1:
                    b.access(++next);
                    break;
                case 2: {
                    int id = ++next;
                    eq.scheduleIn(rng.range(4),
                                  [&log, id]() { log.push_back(-id); });
                    break;
                }
                default:
                    break;
                }
            }
        };
        a.then = act;
        b.then = act;
        Rng roots(seed);
        for (int r = 0; r < 40; ++r) {
            eq.schedule(roots.range(30), [&act, r]() { act(100000 + r); });
        }
        eq.run();
        return Outcome{log, eq.eventsExecuted() + eq.fusedEvents(),
                       eq.seqCounter(), eq.eventsExecuted()};
    };
    std::uint64_t fused_dispatches = 0, reference_dispatches = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Outcome fused = runProgram(seed, true);
        Outcome reference = runProgram(seed, false);
        EXPECT_EQ(fused.log, reference.log) << "seed " << seed;
        EXPECT_EQ(fused.handlers, reference.handlers) << "seed " << seed;
        EXPECT_EQ(fused.seq, reference.seq) << "seed " << seed;
        fused_dispatches += fused.dispatches;
        reference_dispatches += reference.dispatches;
    }
    // Not a vacuous comparison: the programs did fuse.
    EXPECT_LT(fused_dispatches, reference_dispatches);
}

TEST(Ring, KeepsFifoOrderAcrossWrapAndGrowth)
{
    Ring<int> ring;
    EXPECT_TRUE(ring.empty());
    int pushed = 0, popped = 0;
    // Interleave pushes and pops so the head wraps before each doubling.
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 5 * (round + 1); ++i)
            ring.push_back(pushed++);
        for (int i = 0; i < 3 * (round + 1); ++i) {
            EXPECT_EQ(ring.front(), popped++);
            ring.pop_front();
        }
        EXPECT_EQ(ring.back(), pushed - 1);
        EXPECT_EQ(ring.size(), std::size_t(pushed - popped));
    }
    while (!ring.empty()) {
        EXPECT_EQ(ring.front(), popped++);
        ring.pop_front();
    }
    EXPECT_EQ(popped, pushed);
}

namespace {

/** Dispatches + fused handlers of one whole-machine run. */
struct MachineCounts
{
    std::uint64_t dispatches;
    std::uint64_t fused;
};

MachineCounts
runMachine(GpuConfig cfg, std::vector<std::string> benches)
{
    cfg.numTenants = std::uint32_t(benches.size());
    std::vector<std::unique_ptr<Workload>> workloads;
    for (const std::string &name : benches)
        workloads.push_back(makeWorkload(name, 0.25));
    Gpu gpu(cfg, std::move(workloads));
    installWalkBackend(gpu);
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 400;
    limits.warmupInstrs = 100;
    gpu.run(limits);
    return {gpu.eventQueue().eventsExecuted(),
            gpu.eventQueue().fusedEvents()};
}

} // namespace

/**
 * The handlers a machine runs do not depend on fusion: dispatches plus
 * fused handlers equal the event counts these runs had when every
 * handler was its own event.
 */
TEST(SameCycleBatchMachine, HandlerCountsMatchTheUnfusedRuns)
{
    MachineCounts bfs_sw =
        runMachine(test::smallSoftWalkerConfig(), {"bfs"});
    EXPECT_EQ(bfs_sw.dispatches + bfs_sw.fused, 39064u);
    EXPECT_GT(bfs_sw.fused, 0u);

    MachineCounts gemm_hw = runMachine(test::smallConfig(), {"gemm"});
    EXPECT_EQ(gemm_hw.dispatches + gemm_hw.fused, 7256u);
    EXPECT_GT(gemm_hw.fused, 0u);

    MachineCounts corun =
        runMachine(test::smallSoftWalkerConfig(), {"bfs", "gemm"});
    EXPECT_EQ(corun.dispatches + corun.fused, 15845u);
    EXPECT_GT(corun.fused, 0u);
}
