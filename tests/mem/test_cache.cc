/** @file Unit tests for the sectored non-blocking cache model. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/cache.hh"
#include "sim/rng.hh"

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
    MshrTable probe(params.mshrEntries);
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

/** Randomised MshrTable against a std::map, on a few crowded home runs. */
TEST(MshrTable, MatchesReferenceMapUnderChurn)
{
    const std::uint32_t capacity = 16;
    MshrTable table(capacity);
    // Keys drawn from three home positions, one at the top of the index
    // so its probe run wraps around to position 0.
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> homes = {table.home(1), table.home(2)};
    std::uint32_t top = 0;
    for (std::uint64_t s = 1; s < 100000 && top == 0; ++s) {
        if (table.home(s) == 2 * capacity - 1)
            top = table.home(s);
    }
    homes.push_back(top);
    for (std::uint64_t s = 1; keys.size() < 24; ++s) {
        for (std::uint32_t h : homes) {
            if (table.home(s) == h)
                keys.push_back(s);
        }
    }
    std::map<std::uint64_t, int> ref;
    Rng rng(11);
    int tag = 0;
    for (int step = 0; step < 20000; ++step) {
        std::uint64_t key = keys[rng.range(keys.size())];
        MshrTable::Waiters *found = table.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "step " << step;
        if (found) {
            std::uint32_t slot = table.take(key);
            ASSERT_NE(slot, MshrTable::kNoSlot);
            ASSERT_EQ(&table.waiters(slot), found);
            ASSERT_EQ(found->size(), 1u);
            int seen = -1;
            found->front() = [&seen, v = it->second]() { seen = v; };
            found->front()();
            EXPECT_EQ(seen, it->second);
            EXPECT_EQ(table.find(key), nullptr);
            table.recycle(slot);
            ref.erase(it);
        } else if (ref.size() < capacity) {
            table.allocate(key).push_back([]() {});
            ref[key] = ++tag;
        }
        ASSERT_EQ(table.size(), ref.size());
    }
    EXPECT_EQ(table.take(0x7fffffff), MshrTable::kNoSlot);
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
