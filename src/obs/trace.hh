/**
 * @file
 * TranslationTracer: ring-buffered per-request lifecycle recorder.
 *
 * The tracer is one consumer of the lifecycle Probe (obs/probe.hh): it
 * stamps each translation's phase transitions (L1 TLB miss -> L2 lookup
 * -> MSHR/In-TLB alloc -> backend submit -> PTW/PW-Warp dispatch ->
 * per-level walk memory reads -> fill -> wakeup).  The tracer never
 * schedules events and never advances the clock, so an installed tracer
 * leaves the simulated timeline bit-identical; builds configured with
 * -DSOFTWALKER_TRACING=OFF never feed it.
 *
 * Output: a Chrome/Perfetto trace_event JSON array (writeTraceJson) with
 * one "X" (complete) event per walk phase span and "i" (instant) events
 * for the raw stamps, plus per-phase latency attribution (queue = walk
 * created -> walker pickup, walk = pickup -> fill) taken from each
 * WalkFill record's WalkResult, and page-table reads per walk.
 */

#ifndef SW_OBS_TRACE_HH
#define SW_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "obs/probe.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

#ifndef SOFTWALKER_TRACE
#define SOFTWALKER_TRACE 1
#endif

namespace sw {

/** True when the build feeds the tracer (-DSOFTWALKER_TRACING=ON). */
inline constexpr bool kTracingCompiled = SOFTWALKER_TRACE != 0;

/** Ring-buffered lifecycle recorder with per-phase latency attribution. */
class TranslationTracer
{
  public:
    /** One raw phase stamp. */
    struct Stamp
    {
        Cycle cycle = 0;
        std::uint64_t id = 0;    ///< walk id (0: not yet / not applicable)
        Vpn vpn = 0;
        std::uint32_t where = ProbeRecord::kNoWhere;  ///< SM id when known
        Stage phase = Stage::L1Miss;
        Asid asid = 0;           ///< owning tenant (per-tenant attribution)
    };

    /** Reconstructed span record for one completed walk. */
    struct WalkSpan
    {
        std::uint64_t id = 0;
        Vpn vpn = 0;
        Asid asid = 0;
        Cycle created = 0;     ///< WalkCreated
        Cycle dispatched = 0;  ///< first WalkDispatch
        Cycle filled = 0;      ///< WalkFill
        std::uint32_t ptReads = 0;
        std::uint32_t where = ProbeRecord::kNoWhere;  ///< dispatch target
    };

    /**
     * @param capacity ring capacity for raw stamps and completed spans;
     *        the oldest records are overwritten (dropped counters track
     *        how much history was lost).
     */
    explicit TranslationTracer(std::size_t capacity = 1 << 16);

    TranslationTracer(const TranslationTracer &) = delete;
    TranslationTracer &operator=(const TranslationTracer &) = delete;

    /**
     * Stamp one phase transition (one of the first fourteen stages).
     * A WalkFill carrying its WalkResult adds the walk's queue/walk split
     * to the phase stats.  Never schedules; never perturbs.
     */
    void record(const ProbeRecord &record);

    // ---- Per-phase latency attribution (completed walks) ----------------
    /** Walk created -> walker/PW-Warp pickup (WalkResult::queueDelay). */
    const LatencyStat &queuePhase() const { return queuePhase_; }
    /** Pickup -> fill at the L2 TLB (WalkResult::accessLatency). */
    const LatencyStat &walkPhase() const { return walkPhase_; }
    /** Created -> fill (sum of the two phases). */
    const LatencyStat &totalPhase() const { return totalPhase_; }
    /** Page-table reads per completed walk. */
    const LatencyStat &ptReadsPerWalk() const { return ptReadsPerWalk_; }

    /** Zero the attribution stats (post-warmup measurement reset). */
    void resetAttribution();

    // ---- Raw history ----------------------------------------------------
    std::uint64_t stampsRecorded() const { return stampsRecorded_; }
    std::uint64_t stampsDropped() const { return stampsDropped_; }
    std::uint64_t spansCompleted() const { return spansCompleted_; }
    std::uint64_t spansDropped() const { return spansDropped_; }

    /** Stamps still in the ring, oldest first. */
    std::vector<Stamp> stamps() const;

    /** Completed walk spans still in the ring, oldest first. */
    std::vector<WalkSpan> spans() const;

    /**
     * Emit a Chrome/Perfetto trace_event JSON array: "X" complete events
     * for each retained walk's queue and walk phases, "i" instant events
     * for the retained raw stamps.  ts/dur are in simulated cycles.
     */
    void writeTraceJson(std::ostream &out) const;

  private:
    std::size_t capacity_;

    std::vector<Stamp> ring;
    std::size_t ringNext = 0;
    std::uint64_t stampsRecorded_ = 0;
    std::uint64_t stampsDropped_ = 0;

    /** Walks between WalkCreated and WalkFill. */
    std::unordered_map<std::uint64_t, WalkSpan> live;

    std::vector<WalkSpan> spanRing;
    std::size_t spanNext = 0;
    std::uint64_t spansCompleted_ = 0;
    std::uint64_t spansDropped_ = 0;

    LatencyStat queuePhase_;
    LatencyStat walkPhase_;
    LatencyStat totalPhase_;
    LatencyStat ptReadsPerWalk_;
};

} // namespace sw

#endif // SW_OBS_TRACE_HH
