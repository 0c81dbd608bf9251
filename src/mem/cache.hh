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
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/same_cycle_batch.hh"
#include "sim/slot_map.hh"
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
 * Sectored set-associative cache with MSHRs.
 *
 * The tag store is three parallel arrays, one entry per way: a 64-bit
 * tag key (tag + 1, 0 = invalid), a sector mask and an LRU tick.  A set
 * scan reads only the keys (8 B per way, so a 16-way set is two host
 * cache lines); the mask and tick of the matched way are touched only on
 * a hit or a fill.  Line and sector sizes are powers of two, so their
 * offsets are shifts; the set count may be any positive integer.
 */
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
     * (after the hit latency, or after the fill returns from below).  The
     * lookups of one cycle's fan-out share one event (SameCycleBatch).
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

    /** Waiter FIFO of one outstanding miss. */
    using Waiters = std::vector<MemDoneFn>;
    /** Outstanding misses keyed by sector address. */
    using MshrFile = SlotMap<std::uint64_t, Waiters>;

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    /** Where an address lives in the tag store. */
    struct Place
    {
        std::size_t firstWay;    ///< tag-store index of way 0 of the set
        std::uint64_t key;       ///< tag + 1
        std::uint32_t sectorBit; ///< the sector's bit in the line's mask
    };

    static constexpr std::size_t kNoWay = ~std::size_t(0);

    Place locate(PhysAddr addr) const;
    /** Tag-store index of the way holding the line, or kNoWay. */
    std::size_t findWay(const Place &place) const;
    std::uint64_t sectorAddr(PhysAddr addr) const
    {
        return addr >> sectorShift;
    }

    /** One access: its sector, direction and completion. */
    struct Request
    {
        PhysAddr addr = 0;
        bool write = false;
        MemDoneFn onDone;
    };

    /**
     * After the lookup latency: resolve hit/miss.
     * @param retry re-issue of a parked request; skips demand hit/miss
     *        accounting so stats count each access once.
     */
    void lookup(const Request &req, bool retry = false);

    /** Fill returned from the level below. */
    void handleFill(PhysAddr addr);

    /** Install the sector into the tag store, evicting if needed. */
    void install(PhysAddr addr);

    /** Allocate the (all-invalid) tag store: on the first access. */
    void claimTagStore();

    void retryWaiting();

    EventQueue &eventq;
    Params params_;
    CacheForwardFn forward;

    std::uint32_t numSets;
    unsigned lineShift;
    unsigned sectorShift;
    std::uint32_t sectorsPerLine;
    std::size_t numLines;
    /**
     * Tag store, numLines entries each, way-major within a set.  Empty
     * until the first access (claimTagStore()), so building a machine
     * neither allocates nor touches it.
     */
    std::vector<std::uint64_t> tagKeys;   ///< tag + 1; 0 = invalid
    std::vector<std::uint32_t> sectorMasks;  ///< bit per resident sector
    std::vector<std::uint64_t> lruTicks;
    std::uint64_t lruCounter = 0;

    MshrFile mshrs;

    /** Accesses whose lookup latency has not yet elapsed. */
    SameCycleBatch<Request> lookups;
    /** Requests waiting for a free MSHR. */
    Ring<Request> waitingForMshr;

    Stats stats_;
};

} // namespace sw

#endif // SW_MEM_CACHE_HH
