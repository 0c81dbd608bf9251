/**
 * @file
 * Streaming Multiprocessor model.
 *
 * Each SM hosts up to 48 warps that alternate compute gaps and global
 * memory instructions drawn from the workload.  Memory instructions are
 * coalesced to unique pages (translation requests) and unique 32 B sectors
 * (data accesses); the warp blocks until every access completes
 * (scoreboard semantics).  Coalescing keeps no request state beyond a
 * 32-byte lane map per warp: each page's translation carries its group
 * number, and its arrival re-reads the warp's pending instruction to
 * issue that page's sectors.  The single issue port serialises instruction
 * issue, and is shared — with priority — by the PW Warp (§4.2).
 *
 * Scheduler-cycle accounting distinguishes issued/compute cycles from
 * cycles where *every* resident warp is blocked on memory, which is the
 * stall population Figs 8 and 19 measure.
 */

#ifndef SW_GPU_SM_HH
#define SW_GPU_SM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/same_cycle_batch.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "vm/address.hh"
#include "workload/workload.hh"

namespace sw {

class StatGroup;
class CkptWriter;
class CkptReader;
class CycleLedger;

/** Translation issued on behalf of this SM: (vpn, completion). */
using SmTranslateFn = Callback<void(Vpn, Callback<void(Pfn)>)>;

/** Data-memory access: (physical sector address, write, completion). */
using SmDataAccessFn = Callback<void(PhysAddr, bool, Callback<void()>)>;

/** Optional per-instruction trace hook (Fig 3 dumps). */
using TraceHookFn =
    Callback<void(SmId, WarpId, Cycle, const WarpInstr &)>;

/** One GPU core. */
class Sm
{
  public:
    struct Params
    {
        SmId id = 0;
        std::uint32_t numWarps = 48;
        std::uint32_t warpSize = 32;
        std::uint64_t pageBytes = 64 * 1024;
        std::uint32_t sectorBytes = 32;
        std::uint64_t rngSeed = 1;
    };

    struct Stats
    {
        std::uint64_t warpInstrs = 0;      ///< memory instructions issued
        std::uint64_t issueSlotCycles = 0; ///< port cycles, user warps
        std::uint64_t pwIssueCycles = 0;   ///< port cycles, PW Warp
        std::uint64_t computeCycles = 0;   ///< modeled compute-gap work
        std::uint64_t memStallCycles = 0;  ///< all warps blocked on memory
        std::uint64_t translationsRequested = 0;
        std::uint64_t dataAccesses = 0;
        LatencyStat warpMemLatency;        ///< issue -> all accesses done
        LatencyStat accessLatency;         ///< per data access (Fig 4)
    };

    Sm(EventQueue &eq, Params params, Workload &workload,
       SmTranslateFn translate, SmDataAccessFn data_access);

    Sm(const Sm &) = delete;
    Sm &operator=(const Sm &) = delete;

    /**
     * Activate warps and begin issuing.
     * @param quota shared pool of warp instructions left to issue
     * @param active_warps number of warps to enable on this SM
     * @param skew_base delay (cycles) before this SM's first warp starts
     * @param skew_stride additional delay between successive warps
     *
     * A zero skew starts every warp at the current cycle, which is the
     * cold-start behaviour.  Segmented runs restarting a *warm* machine
     * pass a non-zero skew: a lock-step restart keeps warps phase-aligned
     * and can drive the shared L2 TLB MSHRs into a persistent saturated
     * regime that a continuously-run machine never enters.
     */
    void start(std::uint64_t *quota, std::uint32_t active_warps,
               Cycle skew_base = 0, Cycle skew_stride = 0);

    /**
     * Reserve @p slots consecutive issue-port cycles for the PW Warp
     * (highest scheduling priority), walking on behalf of @p walkAsid
     * (cycle-ledger PW-occupancy attribution).
     * @return the cycle at which the last slot completes.
     */
    Cycle reservePwIssue(std::uint32_t slots, Asid walkAsid);

    /** Warps currently blocked on outstanding memory (stall-aware policy). */
    std::uint32_t stalledWarps() const { return blockedWarps; }

    /** Warps still executing. */
    std::uint32_t activeWarps() const { return liveWarps; }

    SmId id() const { return params_.id; }
    const Stats &stats() const { return stats_; }

    /**
     * Zero the statistics (post-warmup reset).  An open all-warps-stalled
     * window restarts at the current cycle.
     */
    void
    resetStats()
    {
        stats_ = Stats{};
        if (fullyStalled)
            stallStart = eventq.now();
    }

    /** Register the SM's counters with the unified stat registry. */
    void registerStats(StatGroup group);

    /** Close an open stall window (end-of-run accounting). */
    void
    finalizeStats()
    {
        if (fullyStalled) {
            stats_.memStallCycles += eventq.now() - stallStart;
            stallStart = eventq.now();
        }
    }

    /**
     * The RNG this SM feeds to Workload::next().  Fast-forward pulls the
     * workload stream functionally through the same generator so detailed
     * simulation resumes exactly where warmup left the stream.
     */
    Rng &workloadRng() { return rng; }

    /** Serialise RNG + issue-port + counters (all warps must be retired). */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(). */
    void restoreState(CkptReader &r);

    /** Set by the GPU when tracing is requested. */
    TraceHookFn traceHook;

    /** Invoked whenever a warp retires (all work done). */
    Callback<void()> onWarpRetired;

    /**
     * Set by the GPU when cycle accounting is requested; the SM reports
     * scheduler-state transitions and PW-issue reservations (pure
     * observer, never scheduled on).
     */
    CycleLedger *ledger = nullptr;

  private:
    /** Lane-map entry of a lane that issues no data access of its own. */
    static constexpr std::uint8_t kNoGroup = 0xff;

    struct WarpState
    {
        bool live = false;
        bool blocked = false;        ///< waiting on memory
        WarpInstr pending;           ///< next instruction to issue
        std::uint32_t outstanding = 0;
        Cycle issuedAt = 0;
        /**
         * Per lane of the issued instruction: the page group (index of
         * its page in first-appearance order) whose translation issues
         * the lane's sector, or kNoGroup when an earlier lane already
         * requested that sector.
         */
        std::array<std::uint8_t, 32> laneGroup{};
    };

    void fetchAndSchedule(WarpId warp);
    void tryIssue(WarpId warp);
    void execMemInstr(WarpId warp);
    /** Page group @p group of @p warp's instruction translated to @p pfn. */
    void translationDone(WarpId warp, std::uint32_t group, Pfn pfn);
    void accessDone(WarpId warp);
    void enterBlocked(WarpId warp);
    void leaveBlocked(WarpId warp);
    void retireWarp(WarpId warp);
    void updateStallWindow();

    EventQueue &eventq;
    Params params_;
    Workload &workload;
    SmTranslateFn translate;
    SmDataAccessFn dataAccess;
    PageGeometry geometry;
    Rng rng;

    std::vector<WarpState> warps;
    std::uint64_t *quota = nullptr;
    std::uint32_t liveWarps = 0;
    std::uint32_t blockedWarps = 0;

    Cycle nextIssueFree = 0;
    /**
     * Warps retrying a busy issue port, woken at nextIssueFree (which
     * never decreases, as SameCycleBatch requires).
     */
    SameCycleBatch<WarpId> issueRetries;
    bool fullyStalled = false;
    Cycle stallStart = 0;

    Stats stats_;
};

} // namespace sw

#endif // SW_GPU_SM_HH
