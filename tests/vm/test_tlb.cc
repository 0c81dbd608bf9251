/** @file Unit & property tests for the TLB array and In-TLB MSHR states. */

#include <gtest/gtest.h>

#include <vector>

#include "ckpt/ckpt_io.hh"
#include "sim/rng.hh"
#include "test_util.hh"
#include "vm/tlb.hh"

using namespace sw;

namespace {

/** These legacy tests are single-tenant: everything is tagged ASID 0. */
constexpr TranslationKey
K(Vpn vpn)
{
    return {0, vpn};
}

TEST(TlbArray, MissOnEmpty)
{
    TlbArray tlb("t", 16, 4);
    Pfn pfn = 0;
    EXPECT_FALSE(tlb.lookup(K(1), pfn));
    EXPECT_EQ(tlb.stats().lookups, 1u);
    EXPECT_EQ(tlb.stats().hits, 0u);
}

TEST(TlbArray, FillThenHit)
{
    TlbArray tlb("t", 16, 4);
    EXPECT_TRUE(tlb.fill(K(7), 77));
    Pfn pfn = 0;
    EXPECT_TRUE(tlb.lookup(K(7), pfn));
    EXPECT_EQ(pfn, 77u);
    EXPECT_DOUBLE_EQ(tlb.stats().hitRate(), 1.0);
}

TEST(TlbArray, RefillUpdatesInPlace)
{
    TlbArray tlb("t", 16, 4);
    tlb.fill(K(7), 77);
    tlb.fill(K(7), 88);
    Pfn pfn = 0;
    EXPECT_TRUE(tlb.lookup(K(7), pfn));
    EXPECT_EQ(pfn, 88u);
    EXPECT_EQ(tlb.stats().evictions, 0u);
}

TEST(TlbArray, SetOverflowEvictsLru)
{
    TlbArray tlb("t", 16, 4);   // 4 sets, 4 ways
    // Five VPNs mapping to set 0 (vpn % 4 == 0).
    for (Vpn vpn = 0; vpn < 5; ++vpn)
        tlb.fill(K(vpn * 4), vpn);
    EXPECT_EQ(tlb.stats().evictions, 1u);
    Pfn pfn = 0;
    EXPECT_FALSE(tlb.lookup(K(0), pfn)) << "LRU entry evicted";
    EXPECT_TRUE(tlb.lookup(K(16), pfn));
}

TEST(TlbArray, LookupRefreshesLru)
{
    TlbArray tlb("t", 16, 4);
    for (Vpn vpn = 0; vpn < 4; ++vpn)
        tlb.fill(K(vpn * 4), vpn);
    Pfn pfn = 0;
    tlb.lookup(K(0), pfn);        // refresh vpn 0
    tlb.fill(K(16), 99);          // evicts vpn 4, not 0
    EXPECT_TRUE(tlb.probe(K(0)));
    EXPECT_FALSE(tlb.probe(K(4)));
}

TEST(TlbArray, FullyAssociativeWhenWaysEqualEntries)
{
    TlbArray tlb("l1", 8, 8);
    EXPECT_EQ(tlb.numSets(), 1u);
    for (Vpn vpn = 0; vpn < 8; ++vpn)
        tlb.fill(K(vpn * 1000 + 3), vpn);
    for (Vpn vpn = 0; vpn < 8; ++vpn)
        EXPECT_TRUE(tlb.probe(K(vpn * 1000 + 3)));
}

TEST(TlbArray, InvalidateRemovesEntry)
{
    TlbArray tlb("t", 16, 4);
    tlb.fill(K(5), 50);
    tlb.invalidate(K(5));
    EXPECT_FALSE(tlb.probe(K(5)));
}

TEST(TlbArray, FlushClearsEverything)
{
    TlbArray tlb("t", 16, 4);
    tlb.fill(K(5), 50);
    tlb.allocPending(K(9));
    tlb.flush();
    EXPECT_FALSE(tlb.probe(K(5)));
    EXPECT_EQ(tlb.pendingCount(), 0u);
}

// ---- In-TLB MSHR behaviour (§4.5) -------------------------------------

TEST(InTlbMshr, AllocPendingOccupiesAWay)
{
    TlbArray tlb("t", 16, 4);
    EXPECT_TRUE(tlb.allocPending(K(8)));
    EXPECT_EQ(tlb.pendingCount(), 1u);
    EXPECT_TRUE(tlb.hasPending(K(8)));
    EXPECT_FALSE(tlb.hasPending(K(12)));
}

TEST(InTlbMshr, SameTagReservationMerges)
{
    TlbArray tlb("t", 16, 4);
    EXPECT_TRUE(tlb.allocPending(K(8)));
    EXPECT_TRUE(tlb.allocPending(K(8)));
    EXPECT_EQ(tlb.pendingCount(), 1u) << "same tag merges onto one slot";
    EXPECT_EQ(tlb.stats().pendingAllocs, 1u);
}

TEST(InTlbMshr, SetFullyPendingFailsFurtherAllocs)
{
    TlbArray tlb("t", 16, 4);
    // Four distinct tags in set 0 consume all ways.
    for (Vpn vpn = 0; vpn < 4; ++vpn)
        EXPECT_TRUE(tlb.allocPending(K(vpn * 4)));
    EXPECT_FALSE(tlb.allocPending(K(16 * 4)));
    EXPECT_EQ(tlb.stats().pendingAllocFailures, 1u);
}

TEST(InTlbMshr, PendingAllocEvictsValidLruEntry)
{
    TlbArray tlb("t", 16, 4);
    for (Vpn vpn = 0; vpn < 4; ++vpn)
        tlb.fill(K(vpn * 4), vpn);
    EXPECT_TRUE(tlb.allocPending(K(100)));   // 100 % 4 == 0 -> set 0
    EXPECT_EQ(tlb.stats().pendingEvictedValid, 1u);
    EXPECT_FALSE(tlb.probe(K(0))) << "LRU translation sacrificed";
}

TEST(InTlbMshr, PendingEntriesAreNotLookupHits)
{
    TlbArray tlb("t", 16, 4);
    tlb.allocPending(K(8));
    Pfn pfn = 0;
    EXPECT_FALSE(tlb.lookup(K(8), pfn));
}

TEST(InTlbMshr, FillNeverDisplacesPending)
{
    TlbArray tlb("t", 16, 4);
    for (Vpn vpn = 0; vpn < 4; ++vpn)
        tlb.allocPending(K(vpn * 4));
    // Every way of set 0 is pending: a fill to that set is skipped.
    EXPECT_FALSE(tlb.fill(K(16 * 4), 1));
    EXPECT_EQ(tlb.stats().fillsSkipped, 1u);
    EXPECT_EQ(tlb.pendingCount(), 4u);
}

TEST(InTlbMshr, ClearPendingFreesAllMatchingWays)
{
    TlbArray tlb("t", 16, 4);
    tlb.allocPending(K(8));
    tlb.allocPending(K(12));
    tlb.clearPending(K(8));
    EXPECT_FALSE(tlb.hasPending(K(8)));
    EXPECT_TRUE(tlb.hasPending(K(12)));
    EXPECT_EQ(tlb.pendingCount(), 1u);
}

TEST(InTlbMshr, WalkCompletionFlow)
{
    // The full §4.5 sequence: alloc pending -> walk completes ->
    // clear pending -> fill valid -> subsequent lookups hit.
    TlbArray tlb("t", 16, 4);
    ASSERT_TRUE(tlb.allocPending(K(8)));
    tlb.clearPending(K(8));
    ASSERT_TRUE(tlb.fill(K(8), 80));
    Pfn pfn = 0;
    EXPECT_TRUE(tlb.lookup(K(8), pfn));
    EXPECT_EQ(pfn, 80u);
    EXPECT_EQ(tlb.pendingCount(), 0u);
}

TEST(TlbArrayDeath, RejectsIndivisibleGeometry)
{
    EXPECT_DEATH(TlbArray("bad", 10, 4), "divisible");
}

/**
 * Drive @p tlb with a seeded mix of every mutating operation over four
 * ASIDs (ASID 3 has no way slice when the array is partitioned, so it
 * falls back to the full way range) and @p vpns pages.  Returns a
 * checksum of every operation's result.
 */
std::uint64_t
seededTlbMix(TlbArray &tlb, std::uint64_t seed, int ops, Vpn vpns)
{
    Rng rng(seed);
    std::uint64_t h = test::kFnvBasis;
    // Keys holding a pending way, cleared in random order like walks
    // completing out of order.
    std::vector<TranslationKey> pending;
    for (int i = 0; i < ops; ++i) {
        TranslationKey key{Asid(rng.range(4)), rng.range(vpns)};
        Pfn pfn = 0;
        switch (rng.range(16)) {
          case 0: case 1: case 2: case 3: case 4:
            h = test::fnvMix(h, tlb.lookup(key, pfn) ? pfn : ~0ull);
            break;
          case 5: case 6: case 7: case 8:
            h = test::fnvMix(h, tlb.fill(key, key.vpn * 3 + key.asid));
            break;
          case 9: case 10:
            if (tlb.allocPending(key)) {
                pending.push_back(key);
                h = test::fnvMix(h, 1);
            } else {
                h = test::fnvMix(h, 0);
            }
            break;
          case 11: case 12:
            if (!pending.empty()) {
                std::size_t k = rng.range(pending.size());
                tlb.clearPending(pending[k]);
                pending.erase(pending.begin() + std::ptrdiff_t(k));
            }
            break;
          case 13:
            tlb.invalidate(key);
            break;
          case 14:
            h = test::fnvMix(h, tlb.probe(key) * 2 + tlb.hasPending(key));
            break;
          default:
            if (rng.range(16) == 0)
                tlb.flushAsid(key.asid);
            break;
        }
        h = test::fnvMix(h, tlb.pendingCount());
    }
    return h;
}

/** Checksum of the forEachValid sequence, in the array's own order. */
std::uint64_t
validSequence(const TlbArray &tlb, std::uint64_t &count)
{
    std::uint64_t h = test::kFnvBasis;
    count = 0;
    tlb.forEachValid([&](TranslationKey key, Pfn pfn) {
        h = test::fnvMix(h, key.asid);
        h = test::fnvMix(h, key.vpn);
        h = test::fnvMix(h, pfn);
        ++count;
    });
    return h;
}

/** Exact counters, valid-entry sequence and checkpoint image of a TLB. */
struct TlbPin
{
    std::uint64_t results, lookups, hits, fills, evictions, fillsSkipped;
    std::uint64_t pendingAllocs, pendingAllocFailures, pendingEvictedValid;
    std::uint32_t pending;
    std::uint64_t validCount, validHash, ckptSize, ckptHash;
};

void
expectPinned(TlbArray &tlb, std::uint64_t results, const TlbPin &pin)
{
    const TlbArray::Stats &s = tlb.stats();
    EXPECT_EQ(results, pin.results);
    EXPECT_EQ(s.lookups, pin.lookups);
    EXPECT_EQ(s.hits, pin.hits);
    EXPECT_EQ(s.fills, pin.fills);
    EXPECT_EQ(s.evictions, pin.evictions);
    EXPECT_EQ(s.fillsSkipped, pin.fillsSkipped);
    EXPECT_EQ(s.pendingAllocs, pin.pendingAllocs);
    EXPECT_EQ(s.pendingAllocFailures, pin.pendingAllocFailures);
    EXPECT_EQ(s.pendingEvictedValid, pin.pendingEvictedValid);
    EXPECT_EQ(tlb.pendingCount(), pin.pending);
    EXPECT_EQ(tlb.countPendingScan(), pin.pending);
    std::uint64_t count = 0;
    EXPECT_EQ(validSequence(tlb, count), pin.validHash);
    EXPECT_EQ(count, pin.validCount);

    CkptWriter w;
    tlb.saveState(w);
    EXPECT_EQ(w.size(), pin.ckptSize);
    EXPECT_EQ(test::fnvBytes(w.bytes()), pin.ckptHash);
    TlbArray copy(tlb.name(), tlb.numEntries(), tlb.numWays());
    CkptReader r(w.bytes().data(), w.size());
    copy.restoreState(r);
    CkptWriter again;
    copy.saveState(again);
    EXPECT_EQ(again.bytes(), w.bytes());
}

/**
 * Behaviour pin for the set-associative array under MIG way slices: 8
 * sets of 8 ways, three tenants confined to ways [0,3), [3,6) and [6,8),
 * 20 k seeded operations over 40 pages per tenant.
 */
TEST(TlbArrayPin, SeededMixUnderMigWaySlices)
{
    TlbArray tlb("l2pin", 64, 8);
    tlb.setWayPartition({{0, 3}, {3, 3}, {6, 2}});
    std::uint64_t results = seededTlbMix(tlb, 99, 20000, 40);
    expectPinned(tlb, results,
                 {3180993143119347328ull, 6276, 1362, 5023, 1706, 385, 2086,
                  110, 1004, 0, 52, 8770487495966906951ull, 1952,
                  3326742239128680146ull});
}

/** The same pin on a 32-entry fully associative array (the L1 TLBs). */
TEST(TlbArrayPin, SeededMixFullyAssociative)
{
    TlbArray tlb("l1pin", 32, 32);
    std::uint64_t results = seededTlbMix(tlb, 7, 20000, 12);
    expectPinned(tlb, results,
                 {13445863939443879313ull, 6222, 2414, 4950, 1343, 0, 1917,
                  0, 784, 19, 11, 6592520572427376589ull, 1024,
                  9704842117551299086ull});
}

/** Property sweep over geometries: fills are always retrievable until the
 *  set overflows, and pending counts stay consistent. */
class TlbGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(TlbGeometry, PendingCountConsistency)
{
    auto [entries, ways] = GetParam();
    TlbArray tlb("p", entries, ways);
    std::uint32_t allocated = 0;
    for (Vpn vpn = 0; vpn < entries * 2; ++vpn) {
        if (tlb.allocPending(K(vpn)))
            ++allocated;
    }
    EXPECT_EQ(tlb.pendingCount(), allocated);
    EXPECT_LE(allocated, entries);
    for (Vpn vpn = 0; vpn < entries * 2; ++vpn)
        tlb.clearPending(K(vpn));
    EXPECT_EQ(tlb.pendingCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometry,
    ::testing::Combine(::testing::Values(16u, 64u, 256u),
                       ::testing::Values(2u, 4u, 16u)));

} // namespace
