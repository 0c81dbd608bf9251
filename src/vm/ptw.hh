/**
 * @file
 * Hardware page-table-walker pool: the baseline Page Walk Subsystem of
 * §2.1 — a Page Walk Buffer (PWB) feeding a fixed number of highly threaded
 * walkers, with a port model for the PWB CAM and optional NHA-style
 * coalescing of walks whose final PTEs share a cache sector.
 */

#ifndef SW_VM_PTW_HH
#define SW_VM_PTW_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "obs/probe.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "vm/address_space.hh"
#include "vm/page_walk_cache.hh"
#include "vm/walk.hh"

namespace sw {

/** Pool of hardware PTWs behind a ported PWB. */
class HardwarePtwPool : public WalkBackend
{
  public:
    struct Params
    {
        std::uint32_t numWalkers = 32;
        std::uint32_t pwbEntries = 64;
        std::uint32_t pwbPorts = 1;
        bool nhaCoalescing = false;
        std::uint32_t nhaSectorBytes = 32;   ///< coalescing window
        Cycle fixedPtAccessLatency = 0;      ///< 0: use the memory model
    };

    struct Stats
    {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t nhaMerged = 0;     ///< walks absorbed by coalescing
        std::uint64_t pwbOverflows = 0;  ///< arrivals past PWB capacity
        std::uint64_t memReads = 0;      ///< page-table memory accesses
        LatencyStat queueDelay;
        LatencyStat accessLatency;
        std::uint64_t peakInFlight = 0;
    };

    /**
     * @param eq event queue
     * @param params pool configuration
     * @param spaces per-ASID page tables; each walk descends the table of
     *        its request's ASID
     * @param pwc shared page walk cache (filled as walks descend)
     * @param pt_access page-table memory read issuer
     * @param on_complete walk-completion sink (the translation engine)
     * @param probe lifecycle probe for WalkDispatch / PtRead (the
     *        engine's); null reports to nobody
     */
    HardwarePtwPool(EventQueue &eq, Params params,
                    const AddressSpaceManager &spaces, PageWalkCache &pwc,
                    PtAccessFn pt_access, WalkCompleteFn on_complete,
                    const Probe *probe = nullptr);

    void submit(WalkRequest req) override;
    std::uint64_t inFlight() const override { return inFlightCount; }
    std::string name() const override { return "hw-ptw"; }

    void resetStats() override { stats_ = Stats{}; }

    /** PTW slot lifecycle + in-flight conservation audits. */
    void registerAudits(Auditor &auditor) override;

    void registerStats(StatGroup group) override;
    void registerGauges(TimeSeriesSampler &sampler) override;

    const Stats &stats() const { return stats_; }
    std::size_t pwbOccupancy() const
    {
        return pwb.size() + overflow.size();
    }
    std::uint32_t busyWalkers() const { return activeWalkers; }

    void saveState(CkptWriter &w) const override;
    void restoreState(CkptReader &r) override;

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    /** Reserve one PWB port operation; returns the cycle it completes. */
    Cycle reservePort();

    /** Start as many walks as idle walkers + PWB occupancy allow. */
    void dispatch();

    /** Run one level step of an active walk. */
    void walkStep(std::uint64_t active_idx);

    struct ActiveWalk
    {
        WalkRequest primary;
        std::vector<WalkRequest> coalesced;   ///< NHA-merged riders
        WalkCursor cursor;
        Cycle started = 0;
        bool live = false;
    };

    void finishWalk(ActiveWalk &walk);

    /**
     * NHA key: walks whose leaf PTEs share one sector can merge.  The key
     * is ASID-qualified — different tenants' PTEs live in different page
     * tables, so their walks never share a sector.
     */
    std::uint64_t nhaKey(const WalkRequest &req) const;

    EventQueue &eventq;
    Params params_;
    const AddressSpaceManager &spaces;
    PageWalkCache &pwc;
    PtAccessFn ptAccess;
    WalkCompleteFn onComplete;
    const Probe &probe;

    std::deque<WalkRequest> pwb;        ///< bounded buffer
    std::deque<WalkRequest> overflow;   ///< spill past PWB capacity
    std::vector<ActiveWalk> active;     ///< slot per walker
    std::vector<std::uint32_t> idleSlots;
    std::uint32_t activeWalkers = 0;
    std::vector<Cycle> portFree;        ///< per-port next-free cycle
    std::uint64_t inFlightCount = 0;
    /** Walks accepted but still crossing the PWB enqueue port. */
    std::uint64_t enqInTransit = 0;
    Stats stats_;
};

} // namespace sw

#endif // SW_VM_PTW_HH
