/** @file Unit tests for the sectored non-blocking cache model. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "ckpt/ckpt_io.hh"
#include "mem/cache.hh"
#include "sim/rng.hh"
#include "test_util.hh"

using namespace sw;

namespace {

/** Fixture: a small cache over a scripted "memory" with fixed latency. */
class CacheTest : public ::testing::Test
{
  protected:
    Cache::Params
    smallParams()
    {
        Cache::Params params;
        params.name = "test";
        params.sizeBytes = 4 * 1024;   // 32 lines of 128 B
        params.ways = 4;
        params.lineBytes = 128;
        params.sectorBytes = 32;
        params.latency = 10;
        params.mshrEntries = 4;
        params.maxMergesPerMshr = 4;
        return params;
    }

    std::unique_ptr<Cache>
    makeCache(Cache::Params params, Cycle mem_latency = 100)
    {
        return std::make_unique<Cache>(
            eq, params,
            [this, mem_latency](PhysAddr, bool,
                                MemDoneFn on_fill) {
                ++memAccesses;
                eq.scheduleIn(mem_latency, on_fill);
            });
    }

    /** Blocking helper: access and run until completion; returns latency. */
    Cycle
    accessAndWait(Cache &cache, PhysAddr addr, bool write = false)
    {
        Cycle start = eq.now();
        bool done = false;
        cache.access(addr, write, [&]() { done = true; });
        eq.run(kCycleMax, [&]() { return done; });
        while (!done && eq.runOne()) {
        }
        return eq.now() - start;
    }

    EventQueue eq;
    int memAccesses = 0;
};

TEST_F(CacheTest, ColdMissGoesToMemory)
{
    auto cache = makeCache(smallParams());
    Cycle latency = accessAndWait(*cache, 0x1000);
    EXPECT_EQ(memAccesses, 1);
    EXPECT_EQ(cache->stats().misses, 1u);
    EXPECT_GE(latency, 110u);   // lookup + memory
}

TEST_F(CacheTest, SecondAccessHits)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    Cycle latency = accessAndWait(*cache, 0x1000);
    EXPECT_EQ(cache->stats().hits, 1u);
    EXPECT_EQ(latency, 10u);    // hit latency only
    EXPECT_EQ(memAccesses, 1);
}

TEST_F(CacheTest, DifferentSectorSameLineIsSectorMiss)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    accessAndWait(*cache, 0x1000 + 32);   // next sector, same 128 B line
    EXPECT_EQ(cache->stats().sectorMisses, 1u);
    EXPECT_EQ(cache->stats().misses, 2u);
    EXPECT_EQ(memAccesses, 2);
}

TEST_F(CacheTest, SameSectorDifferentOffsetHits)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    Cycle latency = accessAndWait(*cache, 0x1000 + 8);
    EXPECT_EQ(latency, 10u);
    EXPECT_EQ(cache->stats().hits, 1u);
}

TEST_F(CacheTest, ConcurrentMissesToSameSectorMerge)
{
    auto cache = makeCache(smallParams());
    int done = 0;
    cache->access(0x2000, false, [&]() { ++done; });
    cache->access(0x2000, false, [&]() { ++done; });
    cache->access(0x2008, false, [&]() { ++done; });
    eq.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(memAccesses, 1);
    EXPECT_EQ(cache->stats().mshrMerges, 2u);
}

TEST_F(CacheTest, MshrFileFullParksRequests)
{
    Cache::Params params = smallParams();
    params.mshrEntries = 2;
    auto cache = makeCache(params);
    int done = 0;
    // Three distinct sectors: third must wait for an MSHR.
    cache->access(0x0000, false, [&]() { ++done; });
    cache->access(0x1000, false, [&]() { ++done; });
    cache->access(0x2000, false, [&]() { ++done; });
    eq.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(cache->stats().mshrFailures, 1u);
    EXPECT_EQ(memAccesses, 3);
}

TEST_F(CacheTest, MergeCapacityExhaustedParksAndEventuallyCompletes)
{
    Cache::Params params = smallParams();
    params.maxMergesPerMshr = 2;
    auto cache = makeCache(params);
    int done = 0;
    for (int i = 0; i < 6; ++i)
        cache->access(0x3000, false, [&]() { ++done; });
    eq.run();
    EXPECT_EQ(done, 6);
    EXPECT_GT(cache->stats().mshrFailures, 0u);
}

TEST_F(CacheTest, LruEvictionOnSetOverflow)
{
    Cache::Params params = smallParams();
    auto cache = makeCache(params);
    // 8 sets; lines mapping to set 0 are 1024 B apart.
    for (PhysAddr i = 0; i < 5; ++i)
        accessAndWait(*cache, i * 1024);
    EXPECT_EQ(cache->stats().evictions, 1u);
    // The first line (LRU victim) is gone; the others are resident.
    EXPECT_FALSE(cache->isResident(0));
    EXPECT_TRUE(cache->isResident(4 * 1024));
}

TEST_F(CacheTest, LruKeepsRecentlyUsed)
{
    auto cache = makeCache(smallParams());
    for (PhysAddr i = 0; i < 4; ++i)
        accessAndWait(*cache, i * 1024);
    accessAndWait(*cache, 0);          // refresh line 0
    accessAndWait(*cache, 4 * 1024);   // evicts line 1, not 0
    EXPECT_TRUE(cache->isResident(0));
    EXPECT_FALSE(cache->isResident(1024));
}

TEST_F(CacheTest, FlushInvalidatesAll)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    cache->flush();
    EXPECT_FALSE(cache->isResident(0x1000));
    accessAndWait(*cache, 0x1000);
    EXPECT_EQ(cache->stats().misses, 2u);
}

TEST_F(CacheTest, WritesAllocateLikeReads)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000, /*write=*/true);
    EXPECT_TRUE(cache->isResident(0x1000));
    Cycle latency = accessAndWait(*cache, 0x1000, /*write=*/false);
    EXPECT_EQ(latency, 10u);
}

TEST_F(CacheTest, StatsResetZeroesCounters)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    cache->resetStats();
    EXPECT_EQ(cache->stats().accesses, 0u);
    EXPECT_EQ(cache->stats().misses, 0u);
    // Contents survive the reset.
    EXPECT_TRUE(cache->isResident(0x1000));
}

TEST_F(CacheTest, MissRateComputation)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    accessAndWait(*cache, 0x1000);
    accessAndWait(*cache, 0x1000);
    EXPECT_NEAR(cache->stats().missRate(), 1.0 / 3.0, 1e-9);
}

/**
 * Fixture variant whose memory never completes on its own: fills are held
 * until the test releases them, in whatever order it chooses.
 */
class HeldFillCacheTest : public CacheTest
{
  protected:
    std::unique_ptr<Cache>
    makeHeldCache(Cache::Params params)
    {
        return std::make_unique<Cache>(
            eq, params,
            [this](PhysAddr addr, bool, MemDoneFn on_fill) {
                ++memAccesses;
                held.emplace(addr / 32, on_fill);
            });
    }

    /** Return the fill of @p sector and run the cache to quiescence. */
    void
    fill(std::uint64_t sector)
    {
        auto it = held.find(sector);
        ASSERT_NE(it, held.end()) << "no fill outstanding for " << sector;
        MemDoneFn on_fill = it->second;
        held.erase(it);
        on_fill();
        eq.run();
    }

    std::map<std::uint64_t, MemDoneFn> held;
};

TEST_F(HeldFillCacheTest, CollidingSectorsFilledOutOfOrderStayFindable)
{
    Cache::Params params = smallParams();
    params.mshrEntries = 8;
    params.maxMergesPerMshr = 8;
    auto cache = makeHeldCache(params);

    // Sectors sharing one home position in the MSHR index, so they form a
    // single probe run; filling from its middle exercises backward shift.
    Cache::MshrFile probe(params.mshrEntries);
    std::vector<std::uint64_t> run;
    for (std::uint64_t s = 1; run.size() < 6; ++s) {
        if (probe.home(s) == probe.home(0x40))
            run.push_back(s);
    }
    std::map<std::uint64_t, int> done;
    for (std::uint64_t s : run)
        cache->access(s * 32, false, [&done, s]() { ++done[s]; });
    eq.run();
    ASSERT_EQ(cache->outstandingMshrs(), run.size());
    ASSERT_EQ(memAccesses, int(run.size()));

    // Out of order: middle, head, tail, then the rest.
    std::vector<std::size_t> fill_order = {2, 0, 5, 3, 1, 4};
    for (std::size_t k = 0; k < fill_order.size(); ++k) {
        std::uint64_t filled = run[fill_order[k]];
        fill(filled);
        // The first access plus one merged access per earlier fill.
        EXPECT_EQ(done[filled], int(k) + 1) << "sector " << filled;
        EXPECT_EQ(cache->outstandingMshrs(), run.size() - k - 1);
        // Every sector still in flight must still be found: a second
        // access merges instead of allocating a new MSHR.
        for (std::size_t j = k + 1; j < fill_order.size(); ++j) {
            std::uint64_t live = run[fill_order[j]];
            std::uint64_t merges = cache->stats().mshrMerges;
            cache->access(live * 32, false, [&done, live]() { ++done[live]; });
            eq.run();
            EXPECT_EQ(cache->stats().mshrMerges, merges + 1)
                << "in-flight sector " << live << " lost from the index";
        }
    }
    EXPECT_EQ(memAccesses, int(run.size()));
    EXPECT_EQ(cache->outstandingMshrs(), 0u);
}

TEST_F(HeldFillCacheTest, WaitersFireInFifoOrderAcrossParkingAndRetry)
{
    Cache::Params params = smallParams();
    params.mshrEntries = 2;
    params.maxMergesPerMshr = 2;
    auto cache = makeHeldCache(params);

    // Sector A: two requests fit its MSHR, the rest park on the merge
    // cap.  Sector B takes the second MSHR; sector C parks on the full
    // file; more A and B requests arrive behind it.
    std::vector<int> order;
    const std::uint64_t a = 0x100, b = 0x200, c = 0x300;
    std::vector<std::uint64_t> issue = {a, a, a, a, b, c, a, b, b};
    for (std::size_t i = 0; i < issue.size(); ++i) {
        cache->access(issue[i] * 32, false,
                      [&order, i]() { order.push_back(int(i)); });
    }
    eq.run();
    EXPECT_EQ(cache->outstandingMshrs(), 2u);
    EXPECT_EQ(cache->waitingForMshrCount(), 5u);   // 2 3 5 6 8
    EXPECT_EQ(cache->stats().mshrFailures, 5u);

    // B's fill runs its waiters in arrival order; the retry of 2 finds A
    // still merge-full and re-parks at the back, ending the retry pass.
    fill(b);
    EXPECT_EQ(order, (std::vector<int>{4, 7}));
    EXPECT_EQ(cache->waitingForMshrCount(), 5u);   // 3 5 6 8 2
    // A's fill: its waiters, then the parked queue front to back — hits
    // fire at once, C takes a fresh MSHR.
    fill(a);
    EXPECT_EQ(order, (std::vector<int>{4, 7, 0, 1, 3, 6, 8, 2}));
    fill(c);
    EXPECT_EQ(order, (std::vector<int>{4, 7, 0, 1, 3, 6, 8, 2, 5}));
    EXPECT_TRUE(held.empty());
    EXPECT_EQ(cache->outstandingMshrs(), 0u);
    EXPECT_EQ(cache->waitingForMshrCount(), 0u);
}

TEST_F(CacheTest, OutstandingMshrsDrainToZero)
{
    Cache::Params params = smallParams();
    params.mshrEntries = 4;
    params.maxMergesPerMshr = 3;
    auto cache = makeCache(params, /*mem_latency=*/37);
    Rng rng(7);
    int done = 0;
    int issued = 0;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 200; ++i, ++issued) {
            cache->access(rng.range(64) * 32, false, [&]() { ++done; });
            if (rng.range(4) == 0)
                eq.runOne();
        }
        eq.run();
        EXPECT_EQ(done, issued);
        EXPECT_EQ(cache->outstandingMshrs(), 0u);
        EXPECT_EQ(cache->waitingForMshrCount(), 0u);
        cache->flush();
    }
    EXPECT_GT(cache->stats().mshrFailures, 0u);
    EXPECT_GT(cache->stats().mshrMerges, 0u);
}

/**
 * Behaviour pin for the tag store and MSHR file, independent of their host
 * layout: a 12-set cache (6 KiB, 4-way, so set and tag need a real modulo)
 * with a six-entry, merge-capped MSHR file takes 20 k seeded sector
 * accesses from a footprint twice its size.  Fill latencies vary per
 * sector, so fills return out of order, and both merge-full and file-full
 * parking retry.  The exact counters, the completion order, residency over
 * the footprint and the checkpoint image must not move.
 */
TEST_F(CacheTest, SeededMixPinsStatsResidencyAndCheckpoint)
{
    Cache::Params params = smallParams();
    params.sizeBytes = 6 * 1024;
    params.latency = 3;
    params.mshrEntries = 6;
    params.maxMergesPerMshr = 3;
    auto cache = std::make_unique<Cache>(
        eq, params, [this](PhysAddr addr, bool, MemDoneFn on_fill) {
            ++memAccesses;
            eq.scheduleIn(20 + (addr / 32) * 7 % 41, on_fill);
        });

    const std::uint64_t footprint_sectors = 96 * 4;   // 96 lines
    Rng rng(2024);
    struct Seen
    {
        std::uint64_t order = test::kFnvBasis;   ///< completion order
        std::uint64_t done = 0;
    } seen;
    const int accesses = 20000;
    PhysAddr addr = 0;
    for (int i = 0; i < accesses; ++i) {
        // One access in four repeats the previous sector, so MSHRs fill
        // up to their merge cap as well as the file running out.
        if (rng.range(4) != 0)
            addr = rng.range(footprint_sectors) * 32 + rng.range(32);
        bool write = rng.range(8) == 0;
        cache->access(addr, write, [&seen, i]() {
            seen.order = test::fnvMix(seen.order, std::uint64_t(i));
            ++seen.done;
        });
        for (std::uint64_t n = rng.range(6); n > 0; --n)
            eq.runOne();
    }
    eq.run();
    ASSERT_EQ(seen.done, std::uint64_t(accesses));
    EXPECT_EQ(cache->outstandingMshrs(), 0u);
    EXPECT_EQ(cache->waitingForMshrCount(), 0u);

    const Cache::Stats &s = cache->stats();
    EXPECT_EQ(s.accesses, 20000u);
    EXPECT_EQ(s.hits, 6423u);
    EXPECT_EQ(s.misses, 13577u);
    EXPECT_EQ(s.sectorMisses, 5026u);
    EXPECT_EQ(s.mshrMerges, 1598u);
    EXPECT_EQ(s.mshrFailures, 119u);
    EXPECT_EQ(s.evictions, 7451u);
    EXPECT_EQ(memAccesses, 11952);
    EXPECT_EQ(seen.order, 16275212835655757021ull);

    std::uint64_t resident = test::kFnvBasis;
    std::uint64_t resident_count = 0;
    for (std::uint64_t sector = 0; sector < footprint_sectors; ++sector) {
        bool in = cache->isResident(sector * 32);
        resident = test::fnvMix(resident, in ? sector : ~sector);
        resident_count += in ? 1 : 0;
    }
    EXPECT_EQ(resident_count, 85u);
    EXPECT_EQ(resident, 16904302268139717165ull);

    CkptWriter w;
    cache->saveState(w);
    EXPECT_EQ(w.size(), 1241u);
    EXPECT_EQ(test::fnvBytes(w.bytes()), 11374868697273507423ull);

    // The image restores into a fresh cache of the same geometry and
    // saves back byte for byte.
    Cache copy(eq, params, [](PhysAddr, bool, MemDoneFn) {});
    CkptReader r(w.bytes().data(), w.size());
    copy.restoreState(r);
    CkptWriter again;
    copy.saveState(again);
    EXPECT_EQ(again.bytes(), w.bytes());
}

/**
 * The tag store is claimed on the first access: a cache never accessed
 * still probes, flushes and checkpoints as an all-invalid one of its
 * geometry, and works after a restore.
 */
TEST_F(CacheTest, UntouchedCacheCheckpointsAsEmpty)
{
    auto cache = makeCache(smallParams());
    EXPECT_FALSE(cache->isResident(0x40));
    cache->flush();
    CkptWriter w;
    cache->saveState(w);

    auto touched = makeCache(smallParams());
    accessAndWait(*touched, 0x40);
    touched->flush();
    CkptWriter flushed;
    touched->saveState(flushed);
    // Same layout as a touched cache with no valid line (stats differ).
    EXPECT_EQ(w.size(), flushed.size());
    CkptReader r(w.bytes().data(), w.size());
    Cache copy(eq, smallParams(), [this](PhysAddr, bool, MemDoneFn on_fill) {
        eq.scheduleIn(100, on_fill);
    });
    copy.restoreState(r);
    CkptWriter again;
    copy.saveState(again);
    EXPECT_EQ(again.bytes(), w.bytes());
    EXPECT_EQ(accessAndWait(copy, 0x40), 110u);
    EXPECT_EQ(accessAndWait(copy, 0x40), 10u);
}

/** Property sweep: for any (ways, sectors) the cache stays consistent. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(CacheGeometry, FillThenProbeConsistent)
{
    auto [ways, sector] = GetParam();
    EventQueue eq;
    Cache::Params params;
    params.sizeBytes = 8 * 1024;
    params.ways = ways;
    params.lineBytes = 128;
    params.sectorBytes = sector;
    params.latency = 1;
    params.mshrEntries = 64;
    Cache cache(eq, params,
                [&eq](PhysAddr, bool, MemDoneFn fill) {
                    eq.scheduleIn(5, fill);
                });
    // Touch a set-worth of lines; all must be resident afterwards.
    for (std::uint32_t i = 0; i < ways; ++i) {
        bool done = false;
        cache.access(PhysAddr(i) * 8 * 1024 / ways, false,
                     [&]() { done = true; });
        eq.run();
        ASSERT_TRUE(done);
    }
    for (std::uint32_t i = 0; i < ways; ++i)
        EXPECT_TRUE(cache.isResident(PhysAddr(i) * 8 * 1024 / ways));
    EXPECT_EQ(cache.stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(32u, 64u, 128u)));

} // namespace
