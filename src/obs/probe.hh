/**
 * @file
 * Probe: the single hook for every translation-lifecycle transition.
 *
 * The translation engine, both walk backends and the PW Warps report each
 * stage of a translation's life as one ProbeRecord through one Probe,
 * which fans it out to the lifecycle tracer, the cycle ledger and the
 * NDJSON event log.  Probe::fanOut is the only code that knows which
 * consumer takes which stage (table: docs/OBSERVABILITY.md §2).  The
 * probe never schedules and never advances the clock.  A site costs one
 * predicted branch plus, when anyone listens, one out-of-line call.
 * -DSOFTWALKER_TRACING=OFF builds never feed the tracer.
 */

#ifndef SW_OBS_PROBE_HH
#define SW_OBS_PROBE_HH

#include <cstdint>

#include "sim/types.hh"
#include "vm/address.hh"

namespace sw {

class CycleLedger;
class EventLog;
class TranslationTracer;
struct WalkResult;

/**
 * Lifecycle stages of one translation / page-table walk.  The first
 * fourteen are the tracer's phases, in their original order (the
 * Perfetto output and stamp encoding depend on it).
 */
enum class Stage : std::uint8_t
{
    L1Miss,         ///< L1 TLB lookup missed
    L2Lookup,       ///< request reached the L2 TLB
    L2Hit,          ///< L2 TLB lookup hit
    L2Miss,         ///< L2 TLB lookup missed
    MshrAlloc,      ///< regular L2 MSHR allocated
    InTlbAlloc,     ///< In-TLB MSHR slot allocated (§4.5)
    MshrFail,       ///< no miss-tracking capacity; requester parked
    WalkCreated,    ///< walk spawned (after the PWC consult)
    BackendSubmit,  ///< walk handed to the walk backend
    WalkDispatch,   ///< picked up by a hardware walker / PW-Warp lane
    PtRead,         ///< one per-level page-table memory read issued
    WalkFill,       ///< walk completed; TLBs filled
    Fault,          ///< walk faulted into the Fault Buffer
    Wakeup,         ///< an L1 waiter was resolved
    L1Hit,          ///< L1 TLB hit (may close a retried request's miss)
    L2Merge,        ///< request joined an outstanding L2 miss
    FaultReplay,    ///< the driver mapped the page; the walk restarts
    WalkHosted,     ///< an SM was picked to run a software walk
};

const char *toString(Stage stage);

/** One lifecycle transition (fields past `key` default when unused). */
struct ProbeRecord
{
    /** @c where value meaning "not tied to one SM / walker". */
    static constexpr std::uint32_t kNoWhere = ~0u;

    Stage stage = Stage::L1Miss;
    Cycle cycle = 0;
    TranslationKey key;
    std::uint64_t id = 0;            ///< walk id (0: not yet / n.a.)
    /** Requesting or hosting SM, or the hardware walker slot. */
    std::uint32_t where = kNoWhere;
    /** WalkDispatch: a PW Warp, not a hardware PTW, picked the walk up. */
    bool software = false;
    /** FaultReplay: the replayed walk holds an In-TLB MSHR slot. */
    bool inTlb = false;
    /** Fault / WalkFill: the walk's outcome and latency split. */
    const WalkResult *result = nullptr;
};

/** Fan-out of lifecycle records to the installed observers. */
class Probe
{
  public:
    /** A probe nobody listens to (for components built without one). */
    static const Probe kSilent;

    constexpr Probe() = default;

    Probe(const Probe &) = delete;
    Probe &operator=(const Probe &) = delete;

    /** Install the consumers; any may be null (null detaches). */
    void attach(TranslationTracer *tracer, CycleLedger *ledger,
                EventLog *events);

    /**
     * Report one transition to whichever consumers want it.  The record
     * is only built when someone listens, so an unobserved site costs
     * the branch alone.
     */
    void
    emit(Stage stage, Cycle cycle, const TranslationKey &key,
         std::uint64_t id = 0,
         std::uint32_t where = ProbeRecord::kNoWhere) const
    {
        if (live)
            fanOut({stage, cycle, key, id, where});
    }

    /** Report a transition that carries a bit or a WalkResult. */
    void
    emit(const ProbeRecord &record) const
    {
        if (live)
            fanOut(record);
    }

  private:
    void fanOut(const ProbeRecord &record) const;

    TranslationTracer *tracer = nullptr;
    CycleLedger *ledger = nullptr;
    EventLog *events = nullptr;
    bool live = false;
};

} // namespace sw

#endif // SW_OBS_PROBE_HH
