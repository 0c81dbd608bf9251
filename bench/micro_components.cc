/**
 * @file
 * Component micro-benchmarks (google-benchmark): throughput of the
 * simulator's hot structures.  These validate that the simulator itself is
 * fast enough to sweep the paper's experiments, not paper results.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_main.hh"

#include "mem/cache.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "vm/page_table.hh"
#include "vm/page_walk_cache.hh"
#include "vm/tlb.hh"

using namespace sw;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(Cycle(i * 7 % 997), [&]() { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_TlbLookupHit(benchmark::State &state)
{
    TlbArray tlb("bench", 1024, 16);
    for (Vpn vpn = 0; vpn < 1024; ++vpn)
        tlb.fill({0, vpn}, vpn + 1);
    Pfn pfn = 0;
    Vpn vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup({0, vpn}, pfn));
        vpn = (vpn + 1) % 1024;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupHit);

static void
BM_TlbFillEvict(benchmark::State &state)
{
    TlbArray tlb("bench", 1024, 16);
    Vpn vpn = 0;
    for (auto _ : state) {
        tlb.fill({0, vpn}, vpn);
        vpn += 64;   // always a new set conflict eventually
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbFillEvict);

static void
BM_RadixWalkFunctional(benchmark::State &state)
{
    PageGeometry geom(64 * 1024);
    FrameAllocator alloc(64 * 1024);
    RadixPageTable pt(geom, alloc);
    Rng rng(1);
    std::vector<Vpn> vpns;
    for (int i = 0; i < 4096; ++i) {
        Vpn vpn = rng.range(1ull << 30);
        pt.ensureMapped(vpn);
        vpns.push_back(vpn);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        WalkCursor cur = pt.startWalk(vpns[i % vpns.size()]);
        while (!cur.done)
            pt.advance(cur);
        benchmark::DoNotOptimize(cur.pfn);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RadixWalkFunctional);

static void
BM_PwcLookup(benchmark::State &state)
{
    PageGeometry geom(64 * 1024);
    FrameAllocator alloc(64 * 1024);
    RadixPageTable pt(geom, alloc);
    PageWalkCache pwc(32);
    for (Vpn vpn = 0; vpn < 32; ++vpn)
        pwc.fill(pt, 1, {0, vpn << 10}, vpn * 0x1000);
    int level = 0;
    PhysAddr base = 0;
    Vpn vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pwc.lookup(pt, {0, (vpn << 10) + 1}, level, base));
        vpn = (vpn + 1) % 32;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PwcLookup);

static void
BM_CacheAccessHit(benchmark::State &state)
{
    EventQueue eq;
    Cache::Params params;
    params.sizeBytes = 128 * 1024;
    params.latency = 1;
    Cache cache(eq, params,
                [&eq](PhysAddr, bool, MemDoneFn fill) {
                    eq.scheduleIn(1, fill);
                });
    // Warm one sector.
    cache.access(0, false, []() {});
    eq.run();
    for (auto _ : state) {
        cache.access(0, false, []() {});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessHit);

/**
 * Miss-and-fill through an L2D-shaped cache (4 MiB, 16 ways) from random
 * sectors over 64 MiB: nearly every access scans a whole set, misses,
 * allocates an MSHR and installs over an LRU victim, so the tag store's
 * host layout is on the measured path (a hit on one hot sector is not).
 */
static void
BM_CacheMissFill(benchmark::State &state)
{
    EventQueue eq;
    Cache::Params params;
    params.sizeBytes = 4ull << 20;
    params.ways = 16;
    params.latency = 1;
    Cache cache(eq, params,
                [&eq](PhysAddr, bool, MemDoneFn fill) {
                    eq.scheduleIn(1, fill);
                });
    Rng rng(3);
    std::vector<PhysAddr> addrs(1 << 16);
    for (PhysAddr &addr : addrs)
        addr = rng.range((64ull << 20) / 32) * 32;
    // Fill the tag store so every miss evicts.
    for (std::size_t i = 0; i < 4 * addrs.size(); ++i) {
        cache.access(rng.range((64ull << 20) / 32) * 32, false, []() {});
        eq.run();
    }
    std::size_t i = 0;
    for (auto _ : state) {
        cache.access(addrs[i], false, []() {});
        eq.run();
        i = (i + 1) & (addrs.size() - 1);
    }
    benchmark::DoNotOptimize(cache.stats().misses);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissFill);

/**
 * Lookups that miss a full 32-entry fully associative L1 TLB: each one
 * scans every way, the common case on irregular workloads.
 */
static void
BM_L1TlbMissScan(benchmark::State &state)
{
    TlbArray tlb("l1", 32, 32);
    for (Vpn vpn = 0; vpn < 32; ++vpn)
        tlb.fill({0, vpn}, vpn + 1);
    Rng rng(5);
    std::vector<Vpn> misses(1024);
    for (Vpn &vpn : misses)
        vpn = 32 + rng.range(1u << 20);
    Pfn pfn = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup({0, misses[i]}, pfn));
        i = (i + 1) & (misses.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L1TlbMissScan);

static void
BM_RngRange(benchmark::State &state)
{
    Rng rng(9);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.range(1000003));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngRange);

SW_BENCHMARK_MAIN_WITH_MANIFEST();
