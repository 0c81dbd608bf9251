/**
 * @file
 * Generic non-blocking, sectored, set-associative cache model.
 *
 * Models tags, LRU replacement, sector-valid bits, and MSHRs with merging.
 * Data values are not stored: the simulator tracks timing, not contents.
 * Used for both the per-SM L1D caches and the shared L2D cache.
 */

#ifndef SW_MEM_CACHE_HH
#define SW_MEM_CACHE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sw {

class StatGroup;
class CkptWriter;
class CkptReader;

/**
 * Forwarding hook to the next level: called with the sector address of a
 * miss; the callee must invoke the supplied callback when the fill data is
 * available.
 */
using CacheForwardFn =
    Callback<void(PhysAddr sector_addr, bool write, MemDoneFn on_fill)>;

/**
 * Fixed-capacity MSHR file keyed by sector address.
 *
 * Up to `capacity` slots, each holding one miss's waiter FIFO, are
 * recycled through a free list and indexed by an open-addressed,
 * linear-probing table of at least twice the capacity (a power of two, so
 * probe runs stay short).  Deletion shifts later entries of the probe run
 * back instead of leaving tombstones, so lookups never slow down as misses
 * come and go.  A recycled slot keeps its waiter vector's capacity (up to
 * kKeptWaiters) for its next miss: in steady state an MSHR costs no
 * allocation.  Storage is claimed on the first miss, so building a
 * machine whose caches never miss costs nothing.
 */
class MshrTable
{
  public:
    using Waiters = std::vector<MemDoneFn>;

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    explicit MshrTable(std::uint32_t capacity);

    /** MSHRs currently findable by sector. */
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Waiters of @p sector's MSHR, or nullptr if none is allocated. */
    Waiters *find(std::uint64_t sector);

    /** Allocate an MSHR for @p sector (absent; fewer than capacity live). */
    Waiters &allocate(std::uint64_t sector);

    /**
     * Remove @p sector's MSHR from the index and return its slot, or
     * kNoSlot if it has none.  The slot's waiters stay put (and the slot
     * stays out of circulation) until recycle().
     */
    std::uint32_t take(std::uint64_t sector);

    /** Waiters of a slot returned by take(), valid until recycle(). */
    Waiters &waiters(std::uint32_t slot) { return slots[slot]; }

    /** Clear a taken slot's waiters and return it to the free list. */
    void recycle(std::uint32_t slot);

    /** Home position of @p sector in the index (where probing starts). */
    std::uint32_t home(std::uint64_t sector) const;

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    /**
     * Waiter capacity a recycled slot keeps; a rare burst of merges
     * beyond it gives its buffer back instead of pinning it.
     */
    static constexpr std::size_t kKeptWaiters = 8;

    /** Index position holding @p sector, or kNoSlot. */
    std::uint32_t position(std::uint64_t sector) const;

    std::uint32_t capacity;
    std::uint32_t indexSize;
    int hashShift;
    std::size_t count = 0;
    /** Waiter FIFOs and their sectors; grow to at most capacity. */
    std::vector<Waiters> slots;
    std::vector<std::uint64_t> sectors;
    std::vector<std::uint32_t> freeSlots;
    /** Open-addressed index of slot numbers (kNoSlot: empty). */
    std::vector<std::uint32_t> index;
};

/** Sectored set-associative cache with MSHRs. */
class Cache
{
  public:
    struct Params
    {
        std::string name = "cache";
        std::uint64_t sizeBytes = 128 * 1024;
        std::uint32_t ways = 8;
        std::uint32_t lineBytes = 128;
        std::uint32_t sectorBytes = 32;
        Cycle latency = 40;
        std::uint32_t mshrEntries = 256;
        std::uint32_t maxMergesPerMshr = 64;
    };

    struct Stats
    {
        std::uint64_t accesses = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;        ///< line or sector misses
        std::uint64_t sectorMisses = 0;  ///< line present, sector absent
        std::uint64_t mshrMerges = 0;
        std::uint64_t mshrFailures = 0;  ///< attempts rejected: MSHRs full
        std::uint64_t evictions = 0;

        double
        missRate() const
        {
            return accesses ? double(misses) / double(accesses) : 0.0;
        }
    };

    Cache(EventQueue &eq, Params params, CacheForwardFn forward);

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Access one sector.  @p on_done fires once the sector is resident
     * (after the hit latency, or after the fill returns from below).
     */
    void access(PhysAddr addr, bool write, MemDoneFn on_done);

    /** Tag-only probe (no latency, no LRU update); used by tests. */
    bool isResident(PhysAddr addr) const;

    /** Invalidate everything (tests / kernel boundaries). */
    void flush();

    /** Zero the statistics (post-warmup measurement reset). */
    void resetStats() { stats_ = Stats{}; }

    /** Register the cache's counters with the unified stat registry. */
    void registerStats(StatGroup group);

    const Stats &stats() const { return stats_; }
    const Params &params() const { return params_; }
    std::size_t outstandingMshrs() const { return mshrs.size(); }
    std::size_t waitingForMshrCount() const { return waitingForMshr.size(); }

    /**
     * Serialise tag store + LRU clock + counters into a checkpoint.  Must
     * only be called at a quiesced tick (no outstanding misses).
     */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(); geometry must match. */
    void restoreState(CkptReader &r);

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    struct Line
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint32_t sectorMask = 0;   ///< bit per resident sector
        std::uint64_t lruTick = 0;
    };

    std::uint64_t lineAddr(PhysAddr addr) const;
    std::uint64_t sectorAddr(PhysAddr addr) const;
    std::uint32_t sectorIndex(PhysAddr addr) const;
    std::uint64_t setIndex(std::uint64_t line_addr) const;
    std::uint64_t tagOf(std::uint64_t line_addr) const;

    /**
     * After the lookup latency: resolve hit/miss.
     * @param retry re-issue of a parked request; skips demand hit/miss
     *        accounting so stats count each access once.
     */
    void lookup(PhysAddr addr, bool write, MemDoneFn on_done,
                bool retry = false);

    /** Fill returned from the level below. */
    void handleFill(PhysAddr addr);

    /** Install the sector into the tag store, evicting if needed. */
    void install(PhysAddr addr);

    void retryWaiting();

    EventQueue &eventq;
    Params params_;
    CacheForwardFn forward;

    std::uint32_t numSets;
    std::uint32_t sectorsPerLine;
    std::vector<Line> lines;            ///< numSets * ways
    std::uint64_t lruCounter = 0;

    /** Outstanding misses keyed by sector address. */
    MshrTable mshrs;

    /** Requests waiting for a free MSHR. */
    struct Waiting
    {
        PhysAddr addr;
        bool write;
        MemDoneFn onDone;
    };
    std::deque<Waiting> waitingForMshr;

    Stats stats_;
};

} // namespace sw

#endif // SW_MEM_CACHE_HH
