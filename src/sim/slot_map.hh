/**
 * @file
 * SlotMap: the one keyed table behind every miss file (cache MSHRs, the
 * per-SM L1 TLB MSHRs and the L2 TLB's outstanding-miss tracks).
 *
 * Values live in a free-listed pool of fixed-size chunks, so a value's
 * address never changes while its slot is in use, however the table
 * grows.  Keys are found through an open-addressed, linear-probing index
 * of 4-byte slot numbers whose size is a power of two; deletion shifts
 * later entries of the probe run back instead of leaving tombstones, so
 * lookups never slow down as misses come and go.  The index doubles when
 * its load would pass one half: a table constructed for at least as many
 * keys as it ever holds never grows.  Storage is claimed on the first
 * insert, so a machine whose caches never miss pays nothing for it.
 *
 * A miss is retired in two steps.  take() removes the key from the index
 * and returns its slot: the key reads as absent from then on, while the
 * slot's value (its waiters) stays in place to be run.  recycle() then
 * clears the value for reuse and returns the slot to the free list.  A
 * recycled value keeps its buffers for the next key (up to
 * kSlotKeptCapacity elements per vector), so a table in steady state
 * allocates nothing.
 *
 * Hash order never escapes: sortedKeys() is the only way to enumerate the
 * table.
 */

#ifndef SW_SIM_SLOT_MAP_HH
#define SW_SIM_SLOT_MAP_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace sw {

/**
 * Element capacity a recycled vector value keeps.  A rare burst of merges
 * beyond it gives its buffer back instead of pinning it for the run.
 */
inline constexpr std::size_t kSlotKeptCapacity = 8;

/** Empty @p list for its next key, keeping a small buffer. */
template <typename T>
void
clearForReuse(std::vector<T> &list)
{
    if (list.capacity() > kSlotKeptCapacity)
        std::vector<T>().swap(list);
    else
        list.clear();
}

/**
 * Keyed table of values with stable addresses.  @p Value is
 * default-constructible and has a clearForReuse() overload (vectors have
 * one above); @p Key is hashable with std::hash and ordered.
 */
template <typename Key, typename Value>
class SlotMap
{
  public:
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    /** @param expected keys the index holds without growing. */
    explicit SlotMap(std::uint32_t expected)
        : indexSize(std::bit_ceil(std::max<std::uint32_t>(2 * expected, 2))),
          hashShift(64 - std::countr_zero(indexSize))
    {
    }

    /** Keys currently findable. */
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Value of @p key, or nullptr if the key is absent. */
    Value *
    find(const Key &key)
    {
        std::uint32_t pos = position(key);
        return pos == kNoSlot ? nullptr : &at(index[pos]);
    }

    const Value *
    find(const Key &key) const
    {
        std::uint32_t pos = position(key);
        return pos == kNoSlot ? nullptr : &at(index[pos]);
    }

    /** Insert absent @p key; returns its value, empty. */
    Value &
    insert(const Key &key)
    {
        if (index.empty())
            index.assign(indexSize, kNoSlot);
        else if (2 * (count + 1) > indexSize)
            grow();
        std::uint32_t slot;
        if (!freeSlots.empty()) {
            slot = freeSlots.back();
            freeSlots.pop_back();
            keys[slot] = key;
        } else {
            slot = static_cast<std::uint32_t>(keys.size());
            if (slot % kChunkValues == 0)
                chunks.push_back(std::make_unique<Value[]>(kChunkValues));
            keys.push_back(key);
        }
        place(slot);
        ++count;
        return at(slot);
    }

    /**
     * Remove @p key from the index and return its slot, or kNoSlot if the
     * key is absent.  The slot's value stays put, and the slot stays out
     * of circulation, until recycle().
     */
    std::uint32_t
    take(const Key &key)
    {
        std::uint32_t hole = position(key);
        if (hole == kNoSlot)
            return kNoSlot;
        std::uint32_t slot = index[hole];
        --count;
        // Backward-shift deletion: pull each later entry of the probe run
        // into the hole unless its home lies cyclically in (hole, j].
        std::uint32_t mask = indexSize - 1;
        for (std::uint32_t j = (hole + 1) & mask; index[j] != kNoSlot;
             j = (j + 1) & mask) {
            std::uint32_t h = home(keys[index[j]]);
            bool stays = hole <= j ? (hole < h && h <= j)
                                   : (hole < h || h <= j);
            if (stays)
                continue;
            index[hole] = index[j];
            hole = j;
        }
        index[hole] = kNoSlot;
        return slot;
    }

    /** Value of a slot returned by take(), valid until recycle(). */
    Value &
    at(std::uint32_t slot)
    {
        return chunks[slot / kChunkValues][slot % kChunkValues];
    }

    const Value &
    at(std::uint32_t slot) const
    {
        return chunks[slot / kChunkValues][slot % kChunkValues];
    }

    /** Clear a taken slot's value and return the slot to the free list. */
    void
    recycle(std::uint32_t slot)
    {
        clearForReuse(at(slot));
        freeSlots.push_back(slot);
    }

    /** Home position of @p key in the index (where probing starts). */
    std::uint32_t
    home(const Key &key) const
    {
        // Fibonacci hashing: keys are dense and strided, the multiply
        // spreads them over the top bits.
        std::uint64_t h = std::hash<Key>()(key);
        return static_cast<std::uint32_t>((h * 0x9e3779b97f4a7c15ull) >>
                                          hashShift);
    }

    /** Current index size (a power of two, at least twice size()). */
    std::uint32_t indexCapacity() const { return indexSize; }

    /** The findable keys, sorted: the table's only enumeration. */
    std::vector<Key>
    sortedKeys() const
    {
        std::vector<Key> out;
        out.reserve(count);
        for (std::uint32_t slot : index) {
            if (slot != kNoSlot)
                out.push_back(keys[slot]);
        }
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    /** Values per pool chunk; chunks never move once allocated. */
    static constexpr std::uint32_t kChunkValues = 64;

    /** Index position holding @p key, or kNoSlot. */
    std::uint32_t
    position(const Key &key) const
    {
        if (count == 0)
            return kNoSlot;
        for (std::uint32_t i = home(key);; i = (i + 1) & (indexSize - 1)) {
            std::uint32_t slot = index[i];
            if (slot == kNoSlot)
                return kNoSlot;
            if (keys[slot] == key)
                return i;
        }
    }

    /** Enter @p slot at the end of its key's probe run. */
    void
    place(std::uint32_t slot)
    {
        std::uint32_t i = home(keys[slot]);
        while (index[i] != kNoSlot)
            i = (i + 1) & (indexSize - 1);
        index[i] = slot;
    }

    /** Double the index and re-enter every findable slot. */
    void
    grow()
    {
        std::vector<std::uint32_t> old(std::size_t(indexSize) * 2, kNoSlot);
        old.swap(index);
        indexSize *= 2;
        --hashShift;
        for (std::uint32_t slot : old) {
            if (slot != kNoSlot)
                place(slot);
        }
    }

    std::uint32_t indexSize;
    int hashShift;   ///< 64 - log2(indexSize)
    std::size_t count = 0;
    /** Value pool, kChunkValues per chunk, indexed by slot. */
    std::vector<std::unique_ptr<Value[]>> chunks;
    /** Key of each slot ever used (stale while the slot is free). */
    std::vector<Key> keys;
    std::vector<std::uint32_t> freeSlots;
    /** Open-addressed index of slot numbers (kNoSlot: empty). */
    std::vector<std::uint32_t> index;
};

} // namespace sw

#endif // SW_SIM_SLOT_MAP_HH
