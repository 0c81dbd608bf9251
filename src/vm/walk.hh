/**
 * @file
 * Walk-backend abstraction: the contract between the L2 TLB miss path and
 * whatever resolves walks — the hardware PTW pool, the SoftWalker, or the
 * hybrid of both.
 */

#ifndef SW_VM_WALK_HH
#define SW_VM_WALK_HH

#include <cstdint>
#include <string>

#include "mem/request.hh"
#include "obs/stat_registry.hh"
#include "sim/callback.hh"
#include "sim/types.hh"
#include "vm/address.hh"
#include "vm/page_table.hh"

namespace sw {

class Auditor;
class CycleLedger;
class TimeSeriesSampler;
class TranslationTracer;

/** One outstanding page-table walk. */
struct WalkRequest
{
    std::uint64_t id = 0;
    TranslationKey key;     ///< {asid, vpn} this walk resolves
    WalkCursor cursor;      ///< start point (after the PWC consult)
    Cycle created = 0;      ///< cycle the L2 TLB miss spawned the walk
};

/** Terminal outcome of a walk, with the paper's latency split (§3.2). */
struct WalkResult
{
    std::uint64_t id = 0;
    TranslationKey key;
    Pfn pfn = 0;
    bool fault = false;
    bool software = false;   ///< walked by a PW-Warp (vs. hardware PTW)
    Cycle queueDelay = 0;    ///< created -> picked up by a walker
    Cycle accessLatency = 0; ///< picked up -> completed
};

/** Invoked by a backend when a walk finishes. */
using WalkCompleteFn = Callback<void(const WalkResult &)>;

/**
 * Issues one page-table memory read; the engine routes it to the PTE path
 * of the memory hierarchy (or a fixed latency in sensitivity sweeps).
 */
using PtAccessFn = Callback<void(PhysAddr, MemDoneFn)>;

/** Resolver of page-table walks behind the L2 TLB. */
class WalkBackend
{
  public:
    virtual ~WalkBackend() = default;

    /** Accept a walk; completion arrives via the WalkCompleteFn. */
    virtual void submit(WalkRequest req) = 0;

    /** Number of walks accepted but not yet completed. */
    virtual std::uint64_t inFlight() const = 0;

    virtual std::string name() const = 0;

    /** Zero the statistics (post-warmup measurement reset). */
    virtual void resetStats() = 0;

    /**
     * Register this backend's conservation audits (slot lifecycle,
     * in-flight accounting) with the Simulation Auditor.  Default: none.
     */
    virtual void registerAudits(Auditor &auditor) { (void)auditor; }

    /**
     * No-ops, kept only because perfbench's forwarding TimedBackend, which
     * changes only with the benchmark, still overrides them.  Backends
     * report lifecycle stages through the engine's Probe, handed over at
     * construction; nothing in the simulator calls these.
     */
    virtual void setTracer(TranslationTracer *tracer) { (void)tracer; }
    virtual void setLedger(CycleLedger *ledger) { (void)ledger; }

    /**
     * Register this backend's counters with the unified stat registry
     * under @p group's prefix ("ptw." / "softwalker.").  Default: none.
     */
    virtual void registerStats(StatGroup group) { (void)group; }

    /**
     * Register backend-specific time-series gauges (walker occupancy,
     * queue depth) with @p sampler.  Default: none.
     */
    virtual void registerGauges(TimeSeriesSampler &sampler)
    {
        (void)sampler;
    }

    /**
     * Serialise backend state into a checkpoint.  Called only at a
     * quiesced tick (no walks in flight); backends with no durable state
     * beyond statistics may keep the default no-op.
     */
    virtual void saveState(CkptWriter &w) const { (void)w; }

    /** Restore state saved by saveState(). */
    virtual void restoreState(CkptReader &r) { (void)r; }
};

} // namespace sw

#endif // SW_VM_WALK_HH
