/** @file Unit tests for SlotMap, the table behind every miss file. */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "sim/rng.hh"
#include "sim/slot_map.hh"
#include "vm/address.hh"

using namespace sw;

namespace {

using IntMap = SlotMap<std::uint64_t, std::vector<int>>;

/** The first @p n keys whose home in @p map is @p home. */
std::vector<std::uint64_t>
keysHomedAt(const IntMap &map, std::uint32_t home, std::size_t n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < n; ++k) {
        if (map.home(k) == home)
            keys.push_back(k);
    }
    return keys;
}

TEST(SlotMap, InsertFindTakeRecycle)
{
    IntMap map(4);
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_EQ(map.take(7), IntMap::kNoSlot);

    map.insert(7).push_back(70);
    map.insert(9).push_back(90);
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), std::vector<int>{70});
    EXPECT_EQ(map.size(), 2u);

    // take() unindexes the key but leaves the value in its slot.
    std::vector<int> *value = map.find(7);
    std::uint32_t slot = map.take(7);
    ASSERT_NE(slot, IntMap::kNoSlot);
    EXPECT_EQ(&map.at(slot), value);
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map.at(slot), std::vector<int>{70});

    // A key re-inserted while its old slot is taken gets a fresh slot.
    map.insert(7).push_back(71);
    EXPECT_NE(map.find(7), value);
    EXPECT_EQ(map.at(slot), std::vector<int>{70});

    // recycle() clears the value, and the next insert reuses the slot.
    map.recycle(slot);
    std::vector<int> &reused = map.insert(11);
    EXPECT_EQ(&reused, value);
    EXPECT_TRUE(reused.empty());
    EXPECT_EQ(map.size(), 3u);
}

TEST(SlotMap, RecycledVectorsKeepOnlySmallBuffers)
{
    IntMap map(2);
    std::vector<int> &small = map.insert(1);
    small.assign(kSlotKeptCapacity, 1);
    std::vector<int> &large = map.insert(2);
    large.assign(kSlotKeptCapacity + 1, 2);
    std::uint32_t small_slot = map.take(1);
    std::uint32_t large_slot = map.take(2);
    map.recycle(small_slot);
    map.recycle(large_slot);
    EXPECT_TRUE(map.at(small_slot).empty());
    EXPECT_GE(map.at(small_slot).capacity(), kSlotKeptCapacity);
    EXPECT_TRUE(map.at(large_slot).empty());
    EXPECT_EQ(map.at(large_slot).capacity(), 0u);
}

/**
 * Keys sharing the index's last position form a probe run that wraps to
 * position 0.  Taking them from the middle, head and tail must shift
 * the rest back across the wrap and keep every one findable.
 */
TEST(SlotMap, BackwardShiftAcrossIndexWrapAround)
{
    IntMap map(8);   // 16 index positions
    ASSERT_EQ(map.indexCapacity(), 16u);
    std::vector<std::uint64_t> run = keysHomedAt(map, 15, 5);
    // A key homed at 0 lands behind the wrapped run.
    std::uint64_t at_zero = keysHomedAt(map, 0, 1).front();
    for (std::uint64_t k : run)
        map.insert(k).push_back(int(k));
    map.insert(at_zero).push_back(int(at_zero));

    std::vector<std::size_t> order = {2, 0, 4, 1, 3};
    std::vector<bool> gone(run.size(), false);
    for (std::size_t i : order) {
        std::uint32_t slot = map.take(run[i]);
        ASSERT_NE(slot, IntMap::kNoSlot) << "key " << run[i];
        map.recycle(slot);
        gone[i] = true;
        for (std::size_t j = 0; j < run.size(); ++j) {
            const std::vector<int> *v = map.find(run[j]);
            if (gone[j]) {
                EXPECT_EQ(v, nullptr) << "key " << run[j];
            } else {
                ASSERT_NE(v, nullptr) << "key " << run[j] << " lost";
                EXPECT_EQ(v->front(), int(run[j]));
            }
        }
        ASSERT_NE(map.find(at_zero), nullptr) << "wrapped-past key lost";
    }
    EXPECT_EQ(map.size(), 1u);
}

/** Unbounded use (ideal-MSHR mode): the index doubles as keys arrive. */
TEST(SlotMap, GrowsPastItsInitialIndex)
{
    IntMap map(4);
    ASSERT_EQ(map.indexCapacity(), 8u);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        map.insert(k * 4096).push_back(int(k));
        ASSERT_LE(2 * map.size(), map.indexCapacity());
    }
    EXPECT_EQ(map.indexCapacity(), 2048u);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        const std::vector<int> *v = map.find(k * 4096);
        ASSERT_NE(v, nullptr) << "key " << k * 4096;
        EXPECT_EQ(v->front(), int(k));
    }
    // A table sized for its peak never grows.
    IntMap bounded(64);
    for (std::uint64_t k = 0; k < 64; ++k)
        bounded.insert(k);
    EXPECT_EQ(bounded.indexCapacity(), 128u);
}

/**
 * A taken slot's waiters run while new misses arrive: the value must not
 * move, however far the table grows meanwhile.
 */
TEST(SlotMap, TakenValueStaysPutAcrossGrowth)
{
    IntMap map(2);
    map.insert(5).assign({1, 2, 3});
    std::uint32_t slot = map.take(5);
    const std::vector<int> *value = &map.at(slot);
    const int *elements = value->data();
    for (std::uint64_t k = 100; k < 600; ++k)
        map.insert(k).push_back(int(k));
    EXPECT_GE(map.indexCapacity(), 1024u);
    EXPECT_EQ(&map.at(slot), value);
    EXPECT_EQ(map.at(slot).data(), elements);
    EXPECT_EQ(map.at(slot), (std::vector<int>{1, 2, 3}));
    // Values of live keys keep their addresses too.
    const std::vector<int> *live = map.find(100);
    for (std::uint64_t k = 600; k < 1200; ++k)
        map.insert(k);
    EXPECT_EQ(map.find(100), live);
    map.recycle(slot);
}

TEST(SlotMap, SortedKeysIsTheOnlyEnumeration)
{
    SlotMap<TranslationKey, std::vector<int>> map(4);
    Rng rng(5);
    std::map<TranslationKey, int> ref;
    for (int i = 0; i < 200; ++i) {
        TranslationKey key{Asid(rng.range(3)), rng.range(1u << 20)};
        if (ref.count(key))
            continue;
        map.insert(key);
        ref[key] = i;
    }
    // Taken keys leave the snapshot.
    for (int i = 0; i < 50; ++i) {
        auto it = ref.begin();
        std::advance(it, std::ptrdiff_t(rng.range(ref.size())));
        map.recycle(map.take(it->first));
        ref.erase(it);
    }
    std::vector<TranslationKey> expected;
    for (const auto &[key, value] : ref)
        expected.push_back(key);
    EXPECT_EQ(map.sortedKeys(), expected);
}

/** Randomised SlotMap against a std::map, on a few crowded home runs. */
TEST(SlotMap, MatchesReferenceMapUnderChurn)
{
    const std::uint32_t capacity = 16;
    IntMap table(capacity);
    // Keys drawn from three home positions, one at the top of the index
    // so its probe run wraps around to position 0.
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> homes = {table.home(1), table.home(2),
                                        2 * capacity - 1};
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
        std::vector<int> *found = table.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "step " << step;
        if (found) {
            std::uint32_t slot = table.take(key);
            ASSERT_NE(slot, IntMap::kNoSlot);
            ASSERT_EQ(&table.at(slot), found);
            ASSERT_EQ(*found, std::vector<int>{it->second});
            EXPECT_EQ(table.find(key), nullptr);
            table.recycle(slot);
            ref.erase(it);
        } else if (ref.size() < capacity) {
            table.insert(key).push_back(++tag);
            ref[key] = tag;
        }
        ASSERT_EQ(table.size(), ref.size());
    }
    EXPECT_EQ(table.indexCapacity(), 2 * capacity) << "a bounded table grew";
    EXPECT_EQ(table.take(0x7fffffff), IntMap::kNoSlot);
}

} // namespace
