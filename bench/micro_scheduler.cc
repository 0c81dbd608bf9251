/**
 * @file
 * Event-scheduler micro-benchmarks (google-benchmark): events/second on
 * the slab-backed EventQueue, with capture sizes matching the simulator's
 * real hot paths (16-byte issue events up to 80-byte interconnect hops
 * carrying a WalkRequest), plus self-scheduling chains and a periodic
 * sweep-hook workload.
 *
 * BM_LegacyQueue* replicate the pre-InlineFunction design in-file — a
 * std::priority_queue of {cycle, seq, std::function} — so the speedup of
 * the slab design is measured against the exact structure it replaced
 * rather than against memory.
 */

#include <benchmark/benchmark.h>

#include "bench_main.hh"

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

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

/** The design InlineFunction replaced, reproduced for comparison. */
class LegacyQueue
{
  public:
    void
    schedule(Cycle when, std::function<void()> fn)
    {
        heap.push(Event{when, nextSeq++, std::move(fn)});
    }

    void
    run()
    {
        while (!heap.empty()) {
            // std::priority_queue::top() is const; the historical code
            // const_cast the event out to move its closure.
            Event &top = const_cast<Event &>(heap.top());
            now = top.when;
            std::function<void()> fn = std::move(top.fn);
            heap.pop();
            fn();
        }
    }

    Cycle now = 0;

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Event &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    std::uint64_t nextSeq = 0;
};

template <typename Queue, typename Pad>
void
scheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        Queue eq;
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
    scheduleRun<EventQueue, Pad16>(state);
}
BENCHMARK(BM_Schedule16B);

static void
BM_Schedule40B(benchmark::State &state)
{
    scheduleRun<EventQueue, Pad40>(state);
}
BENCHMARK(BM_Schedule40B);

static void
BM_Schedule64B(benchmark::State &state)
{
    scheduleRun<EventQueue, Pad64>(state);
}
BENCHMARK(BM_Schedule64B);

static void
BM_LegacyQueue16B(benchmark::State &state)
{
    scheduleRun<LegacyQueue, Pad16>(state);
}
BENCHMARK(BM_LegacyQueue16B);

static void
BM_LegacyQueue40B(benchmark::State &state)
{
    scheduleRun<LegacyQueue, Pad40>(state);
}
BENCHMARK(BM_LegacyQueue40B);

static void
BM_LegacyQueue64B(benchmark::State &state)
{
    scheduleRun<LegacyQueue, Pad64>(state);
}
BENCHMARK(BM_LegacyQueue64B);

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

/** Slab-spilling captures (larger than kEventInlineBytes): the slow path. */
static void
BM_ScheduleOversized(benchmark::State &state)
{
    struct Pad128
    {
        std::uint64_t a[16] = {};
    };
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sink = 0;
        Pad128 pad;
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
BENCHMARK(BM_ScheduleOversized);

SW_BENCHMARK_MAIN_WITH_MANIFEST();
