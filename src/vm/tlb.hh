/**
 * @file
 * Set-associative TLB tag/data array with In-TLB MSHR support.
 *
 * Each entry is in one of three states (valid translation, invalid, or
 * *pending* — repurposed as an In-TLB MSHR slot holding metadata for an
 * outstanding miss, §4.5).  The same array class backs the fully
 * associative per-SM L1 TLBs (ways == entries) and the shared 16-way
 * L2 TLB.
 *
 * Entries are keyed by TranslationKey {asid, vpn}: tenants share the
 * array, with the ASID participating in the tag compare only — the set
 * index stays vpn % sets so ASID-0 (single-tenant) indexing, victim
 * selection, and therefore fingerprints are unchanged.  Under MIG
 * partitioning each tenant's victim selection is confined to its own way
 * slice (setWayPartition); lookups still scan every way, which is safe
 * because tags are ASID-qualified.
 *
 * The array is stored as parallel per-way arrays.  A tag scan reads only
 * the VPN array (8 B per way, so a 32-way fully associative L1 TLB is
 * four host cache lines) and checks state and ASID only on a VPN match,
 * in way order, so a pending and a valid way with the same key resolve
 * exactly as a scan of whole entries would.
 */

#ifndef SW_VM_TLB_HH
#define SW_VM_TLB_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "vm/address.hh"

namespace sw {

class StatGroup;
class CkptWriter;
class CkptReader;

/** TLB tag store with LRU replacement and tri-state entries. */
class TlbArray
{
  public:
    enum class EntryState : std::uint8_t { Invalid, Valid, Pending };

    struct Stats
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t fills = 0;
        std::uint64_t evictions = 0;
        std::uint64_t fillsSkipped = 0;      ///< all ways pending: no fill
        std::uint64_t pendingAllocs = 0;     ///< In-TLB MSHR allocations
        std::uint64_t pendingAllocFailures = 0; ///< set fully pending
        std::uint64_t pendingEvictedValid = 0;  ///< valid entry sacrificed

        double
        hitRate() const
        {
            return lookups ? double(hits) / double(lookups) : 0.0;
        }
    };

    TlbArray(std::string name, std::uint32_t entries, std::uint32_t ways);

    /**
     * Confine victim selection for each ASID to [first way, way count)
     * (MIG way slices).  An empty vector (the default) lets every ASID
     * use the full way range; an ASID beyond the vector also falls back
     * to the full range.
     */
    void setWayPartition(
        std::vector<std::pair<std::uint32_t, std::uint32_t>> slices);

    /** Look up a translation; updates LRU on hit. */
    bool lookup(TranslationKey key, Pfn &pfn);

    /** Tag-only probe without LRU side effects. */
    bool probe(TranslationKey key) const;

    /**
     * Install a valid translation (TLB fill / FL2T).
     * Victim preference: invalid way, else LRU valid way; pending ways are
     * never displaced.
     * @retval false if every candidate way of the set is pending.
     */
    bool fill(TranslationKey key, Pfn pfn);

    /**
     * Convert a victim entry of the key's set into an In-TLB MSHR slot.
     * @retval false if every candidate way of the set is already pending.
     */
    bool allocPending(TranslationKey key);

    /** True if @p key currently occupies a pending (In-TLB MSHR) way. */
    bool hasPending(TranslationKey key) const;

    /** Clear every pending way whose tag matches @p key (walk completion). */
    void clearPending(TranslationKey key);

    /** Invalidate a specific translation (TLB shootdown). */
    void invalidate(TranslationKey key);

    /**
     * Drop every *valid* translation belonging to @p asid (tenant
     * teardown / ASID-selective shootdown).  Pending (In-TLB MSHR) ways
     * survive: their walks are still in flight and will clear them on
     * completion, exactly like a per-VPN shootdown.
     */
    void flushAsid(Asid asid);

    /** Drop everything. */
    void flush();

    std::uint32_t pendingCount() const { return numPending; }

    /**
     * Recount pending ways by scanning the array; the Simulation Auditor
     * cross-checks this against the running pendingCount() counter.
     */
    std::uint32_t countPendingScan() const;

    /**
     * Invoke @p fn for every valid translation (cross-ASID containment
     * audit); never called on the hot path.
     */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t i = 0; i < states.size(); ++i) {
            if (states[i] == EntryState::Valid)
                fn(TranslationKey{asids[i], vpns[i]}, pfns[i]);
        }
    }

    std::uint32_t numEntries() const { return std::uint32_t(vpns.size()); }
    std::uint32_t numWays() const { return ways; }
    std::uint32_t numSets() const { return sets; }
    std::uint64_t setOf(Vpn vpn) const { return vpn % sets; }

    /** Zero the statistics (post-warmup measurement reset). */
    void resetStats() { stats_ = Stats{}; }

    /** Register the array's counters with the unified stat registry. */
    void registerStats(StatGroup group);

    const Stats &stats() const { return stats_; }
    const std::string &name() const { return name_; }

    /** Serialise the full array (entries incl. In-TLB MSHR ways, LRU
     *  clock, counters) into a checkpoint. */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(); geometry must match. */
    void restoreState(CkptReader &r);

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    static constexpr std::size_t kNoWay = ~std::size_t(0);

    /**
     * Array index of the first way of @p key's set that holds @p key in
     * @p state, or kNoWay.
     */
    std::size_t findWay(TranslationKey key, EntryState state) const;
    /**
     * Victim for a new entry in @p key's set: the first invalid way of
     * the ASID's way range, else its least recently used valid way;
     * pending ways are never chosen.  kNoWay if every way is pending.
     */
    std::size_t pickVictim(TranslationKey key) const;
    /** Way range victim selection may touch for @p asid. */
    std::pair<std::uint32_t, std::uint32_t> victimWays(Asid asid) const;
    /** Overwrite @p way with a new entry, most recently used. */
    void setEntry(std::size_t way, EntryState state, TranslationKey key,
                  Pfn pfn);

    std::string name_;
    std::uint32_t ways;
    std::uint32_t sets;
    /** Per-way arrays, sets * ways each, way-major within a set. */
    std::vector<Vpn> vpns;
    std::vector<EntryState> states;
    std::vector<Asid> asids;
    std::vector<Pfn> pfns;
    std::vector<std::uint64_t> lruTicks;
    /** Per-ASID (first way, way count); empty = no partitioning. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> waySlices;
    std::uint64_t lruCounter = 0;
    std::uint32_t numPending = 0;
    Stats stats_;
};

} // namespace sw

#endif // SW_VM_TLB_HH
