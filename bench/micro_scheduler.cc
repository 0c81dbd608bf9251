/**
 * @file
 * Event-scheduler micro-benchmarks (google-benchmark): events/second on
 * the slab-backed EventQueue, with capture sizes matching the simulator's
 * real hot paths (16-byte issue events up to the 80-byte PWB enqueue
 * carrying a WalkRequest), plus self-scheduling chains, a periodic
 * sweep-hook workload and a far-future mix.
 */

#include <benchmark/benchmark.h>

#include "bench_main.hh"

#include <cstdint>
#include <functional>

#include "sim/event_queue.hh"

using namespace sw;

namespace {

constexpr int kEvents = 4096;

/** Capture payloads shaped like the simulator's real events. */
struct Pad16
{
    std::uint64_t a[2] = {};
};
struct Pad40
{
    std::uint64_t a[5] = {};
};
struct Pad64
{
    std::uint64_t a[8] = {};
};

template <typename Pad>
void
scheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sink = 0;
        Pad pad;
        for (int i = 0; i < kEvents; ++i) {
            pad.a[0] = std::uint64_t(i);
            eq.schedule(Cycle(i * 7 % 997),
                        [&sink, pad]() { sink += pad.a[0]; });
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}

} // namespace

static void
BM_Schedule16B(benchmark::State &state)
{
    scheduleRun<Pad16>(state);
}
BENCHMARK(BM_Schedule16B);

static void
BM_Schedule40B(benchmark::State &state)
{
    scheduleRun<Pad40>(state);
}
BENCHMARK(BM_Schedule40B);

static void
BM_Schedule64B(benchmark::State &state)
{
    scheduleRun<Pad64>(state);
}
BENCHMARK(BM_Schedule64B);

/** Self-scheduling chain: the simulator's dominant pattern (tryIssue). */
static void
BM_SelfSchedulingChain(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int remaining = kEvents;
        std::function<void()> step = [&]() {
            if (--remaining > 0)
                eq.scheduleIn(1, [&]() { step(); });
        };
        eq.scheduleIn(1, [&]() { step(); });
        eq.run();
        benchmark::DoNotOptimize(remaining);
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_SelfSchedulingChain);

/** Scheduling with a live periodic sweep hook (Auditor/sampler overhead). */
static void
BM_ScheduleWithPeriodicCheck(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sweeps = 0;
        eq.addPeriodicCheck(64, [&](Cycle) { ++sweeps; });
        std::uint64_t sink = 0;
        for (int i = 0; i < kEvents; ++i)
            eq.schedule(Cycle(i), [&sink]() { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sweeps);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_ScheduleWithPeriodicCheck);

/**
 * Far-future mix: one event in eight lands beyond the timing wheel's
 * window (the overflow heap, then migration into its bucket); the rest
 * stay inside it.  Every other benchmark here stays inside the window.
 */
static void
BM_ScheduleFarFuture(benchmark::State &state)
{
    const Cycle window = EventQueue::kWheelSlots;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sink = 0;
        for (int i = 0; i < kEvents; ++i) {
            Cycle when = (i % 8 == 0) ? window + Cycle(i * 13 % (3 * window))
                                      : Cycle(i * 7 % 997);
            eq.schedule(when, [&sink]() { ++sink; });
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_ScheduleFarFuture);

SW_BENCHMARK_MAIN_WITH_MANIFEST();
