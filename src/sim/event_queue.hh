/**
 * @file
 * Global event queue driving the cycle-level simulation.
 *
 * The simulator is event-driven: components schedule callbacks at absolute
 * cycles and the kernel executes them in (cycle, insertion-order) order.
 * There is no per-cycle tick loop; idle periods cost nothing, which is what
 * makes sweeping twenty workloads over dozens of configurations cheap.
 *
 * The hot path is allocation-free and O(1), split across three structures:
 *
 *  - a slot-recycling *event slab* holding the handlers themselves —
 *    InlineFunctions whose captures live inside the slab entry (up to
 *    kEventInlineBytes; larger captures recycle through a thread-local
 *    overflow slab).  Slots freed by executed events are reused before the
 *    slab ever grows, so steady state never touches the allocator.  Each
 *    slot carries a 16-byte link: its cycle and the next slot in its
 *    bucket.
 *
 *  - a *timing wheel* of kWheelSlots per-cycle buckets covering the
 *    window [now, now + kWheelSlots).  A bucket is an intrusive FIFO of
 *    slab slots threaded through the links, so scheduling appends in
 *    insertion order and popping takes the head: same-cycle order needs
 *    no sequence comparison at all.  A two-level bitmap (one bit per
 *    bucket, one summary bit per 64 buckets) finds the next non-empty
 *    bucket with two count-trailing-zeros.
 *
 *  - an *overflow heap* of (cycle, seq, slot) entries for events
 *    scheduled kWheelSlots or more cycles ahead.  Each time the clock
 *    advances — before any handler runs at the new cycle — every overflow
 *    entry that now falls inside the window migrates into its bucket, in
 *    (cycle, seq) order.  An event can only be scheduled directly into
 *    cycle X once the clock is past X - kWheelSlots, and an overflow entry
 *    for X was scheduled at or before X - kWheelSlots, so migration always
 *    appends it ahead of every direct insert into the same cycle: bucket
 *    order is exactly insertion-seq order.
 *
 * The window is fixed, not a knob.  No event of the twelve perfbench jobs
 * is scheduled more than 1059 cycles ahead, and the largest fixed latency
 * in the model is the 2000-cycle OS fault, so the overflow heap stays
 * empty in normal runs; it serves configurations with latencies in the
 * thousands of cycles, whose order it keeps exact (docs/PERFORMANCE.md
 * §2 has the distance histogram).
 *
 * Execution order is therefore the strict total order on
 * (cycle, insertion-seq): neither the bucket layout, the overflow heap's
 * shape nor slab slot assignment can change which event runs next.
 */

#ifndef SW_SIM_EVENT_QUEUE_HH
#define SW_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "check/audit.hh"
#include "prof/hostprof.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace sw {

/**
 * Inline capture budget for event handlers.  Sized for the largest hot
 * capture in the simulator — the SoftWalker interconnect hop, which moves
 * a whole WalkRequest (64 bytes) plus a target SM id — with the hot files
 * static_asserting that their closures fit (see e.g. core/softwalker.cc).
 */
inline constexpr std::size_t kEventInlineBytes = 80;

/** Callback executed when an event fires. */
using EventFn = InlineFunction<void(), kEventInlineBytes>;

/**
 * Tick-ordered event queue.  Events scheduled for the same cycle execute in
 * insertion order, which keeps the model deterministic.
 */
class EventQueue
{
  public:
    /** Near-future window of the timing wheel, in cycles (power of 2). */
    static constexpr std::uint32_t kWheelSlots = 4096;

    EventQueue() { clearWheel(); }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated cycle. */
    Cycle now() const { return curCycle; }

    /** Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return numExecuted; }

    /** Number of pending events. */
    std::size_t pending() const { return wheelCount + overflow.size(); }

    bool empty() const { return pending() == 0; }

    /**
     * Schedule @p fn to run at absolute cycle @p when.
     * Scheduling in the past is a simulator bug.
     */
    void
    schedule(Cycle when, EventFn fn)
    {
        SW_ASSERT(when >= curCycle,
                  "event scheduled in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(curCycle));
        std::uint32_t slot;
        if (freeSlots.empty()) {
            slot = static_cast<std::uint32_t>(slab.size());
            slab.emplace_back();
            links.emplace_back();
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
        }
        slab[slot] = std::move(fn);
        std::uint64_t seq = nextSeq++;
        if (when - curCycle < kWheelSlots) {
            pushWheel(slot, when);
        } else {
            overflow.push_back(OverflowEntry{when, seq, slot});
            std::push_heap(overflow.begin(), overflow.end(), Later{});
        }
    }

    /** Schedule @p fn to run @p delay cycles from now. */
    void
    scheduleIn(Cycle delay, EventFn fn)
    {
        schedule(curCycle + delay, std::move(fn));
    }

    /**
     * Execute the earliest pending event, advancing the clock to it.
     * @retval false if the queue was empty.
     */
    bool
    runOne()
    {
        if (empty())
            return false;
        dispatch(nextCycle());
        return true;
    }

    /**
     * Sweep hooks are invoked from run() between two events whenever at
     * least their interval has elapsed since their previous sweep.  Hooks
     * piggyback on real events: they never schedule anything, never
     * advance the clock, and never keep a drained simulation alive, so the
     * simulated timeline is identical with and without them (the
     * Simulation Auditor and the observability sampler both depend on
     * this — they observe, they must not perturb).
     */
    using SweepFn = std::function<void(Cycle)>;

    /**
     * Subscribe an independent sweep hook with its own interval.
     * Several subscribers may coexist (e.g. the Auditor's conservation
     * sweep and the TimeSeriesSampler); each fires on its own cadence.
     * @return a handle for removePeriodicCheck().
     */
    std::uint64_t
    addPeriodicCheck(Cycle interval, SweepFn fn)
    {
        SW_ASSERT(interval > 0 && fn, "sweep hook needs an interval and fn");
        std::uint64_t id = nextSweepId++;
        sweeps.push_back(Sweep{id, interval, curCycle, std::move(fn)});
        return id;
    }

    /** Unsubscribe a hook added with addPeriodicCheck(); unknown ids ok. */
    void
    removePeriodicCheck(std::uint64_t id)
    {
        for (std::size_t i = 0; i < sweeps.size(); ++i) {
            if (sweeps[i].id == id) {
                sweeps.erase(sweeps.begin() +
                             static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
    }

    /** Number of live periodic-check subscriptions. */
    std::size_t numPeriodicChecks() const { return sweeps.size(); }

    /** Insertion-sequence counter (checkpointing; pairs with now()). */
    std::uint64_t seqCounter() const { return nextSeq; }

    /**
     * Restore the clock of a drained queue to a checkpointed position.
     * Only the scalar counters move: pending events cannot be serialised
     * (they are closures), which is why checkpoints are taken at a
     * quiesced tick in the first place.  The sequence counter must be
     * restored too — it breaks same-cycle scheduling ties, so resuming
     * with a different value would reorder the resumed timeline.
     */
    void
    restoreClock(Cycle cycle, std::uint64_t seq, std::uint64_t executed)
    {
        SW_ASSERT(empty(),
                  "clock restore with %zu event(s) pending", pending());
        SW_ASSERT(cycle >= curCycle && seq >= nextSeq,
                  "clock restore would rewind time");
        curCycle = cycle;
        nextSeq = seq;
        numExecuted = executed;
    }

    /**
     * Run events until the queue is empty, @p predicate returns true, or
     * @p cycle_limit is reached.
     * @return the cycle at which execution stopped.
     */
    Cycle
    run(Cycle cycle_limit = kCycleMax,
        const std::function<bool()> &predicate = {})
    {
        SW_PROF_SCOPE(::sw::prof::Zone::SimLoop);
        while (!empty()) {
            Cycle when = nextCycle();
            if (when > cycle_limit)
                break;
            if (predicate && predicate())
                break;
            dispatch(when);
            for (Sweep &sweep : sweeps) {
                if (curCycle - sweep.last >= sweep.interval) {
                    sweep.last = curCycle;
                    sweep.fn(curCycle);
                }
            }
            // Host gauges every 2^16 events: the cadence is driven by the
            // (deterministic) event count, so the sampled sim cycles are
            // identical across runs even though the values are host-side.
            if ((numExecuted & ((1u << 16) - 1)) == 0) {
                SW_PROF_GAUGES(curCycle, pending(),
                               slab.size() - freeSlots.size(), slab.size());
            }
            if ((numExecuted & ((1u << 24) - 1)) == 0) {
                inform("event queue: %llu events, cycle %llu, %zu pending",
                       static_cast<unsigned long long>(numExecuted),
                       static_cast<unsigned long long>(curCycle),
                       pending());
            }
        }
        return curCycle;
    }

    /**
     * Drop all pending events, periodic-check subscriptions, and counters;
     * reset the clock (tests only).  Sweep subscriptions must not survive:
     * their captures point into components whose lifetime ended with the
     * run being reset.
     */
    void
    reset()
    {
        clearWheel();
        overflow.clear();
        slab.clear();
        links.clear();
        freeSlots.clear();
        curCycle = 0;
        nextSeq = 0;
        numExecuted = 0;
        // Sweep ids keep counting: a handle held across reset() can
        // never unsubscribe a hook added after it.
        sweeps.clear();
    }

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    static constexpr std::uint32_t kWheelMask = kWheelSlots - 1;
    static constexpr std::uint32_t kWords = kWheelSlots / 64;
    static_assert((kWheelSlots & kWheelMask) == 0 && kWords <= 64,
                  "wheel must be a power of two with a one-word summary");
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    /** Per-slot bucket link, parallel to the slab. */
    struct Link
    {
        Cycle when = 0;
        std::uint32_t next = kNil;
    };

    /** Intrusive FIFO of slab slots due in one cycle of the window. */
    struct Bucket
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** Overflow-heap element: ordering key + slab slot. */
    struct OverflowEntry
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    static_assert(std::is_trivially_copyable_v<OverflowEntry>,
                  "heap sifts must be memcpys");

    struct Later
    {
        bool
        operator()(const OverflowEntry &a, const OverflowEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** One periodic sweep subscription (see addPeriodicCheck()). */
    struct Sweep
    {
        std::uint64_t id;
        Cycle interval;
        Cycle last;
        SweepFn fn;
    };

    void
    clearWheel()
    {
        buckets.fill(Bucket{kNil, kNil});
        occupied.fill(0);
        summary = 0;
        wheelCount = 0;
    }

    /** Append @p slot to the FIFO of cycle @p when (inside the window). */
    void
    pushWheel(std::uint32_t slot, Cycle when)
    {
        links[slot] = Link{when, kNil};
        std::uint32_t b = static_cast<std::uint32_t>(when) & kWheelMask;
        Bucket &bucket = buckets[b];
        if (bucket.tail == kNil) {
            bucket.head = slot;
            occupied[b >> 6] |= std::uint64_t(1) << (b & 63);
            summary |= std::uint64_t(1) << (b >> 6);
        } else {
            links[bucket.tail].next = slot;
        }
        bucket.tail = slot;
        ++wheelCount;
    }

    /** First non-empty bucket at or after now, circularly (wheel > 0). */
    std::uint32_t
    nextBucket() const
    {
        std::uint32_t start = static_cast<std::uint32_t>(curCycle) &
                              kWheelMask;
        std::uint32_t w = start >> 6;
        std::uint64_t bits =
            occupied[w] & (~std::uint64_t(0) << (start & 63));
        if (bits)
            return (w << 6) | std::uint32_t(std::countr_zero(bits));
        std::uint64_t later =
            w == 63 ? 0 : summary & (~std::uint64_t(0) << (w + 1));
        w = std::uint32_t(std::countr_zero(later ? later : summary));
        return (w << 6) | std::uint32_t(std::countr_zero(occupied[w]));
    }

    /** Cycle of the earliest pending event (queue non-empty). */
    Cycle
    nextCycle() const
    {
        // Overflow entries all lie beyond the window, so any wheel event
        // comes first.
        if (wheelCount == 0)
            return overflow.front().when;
        return links[buckets[nextBucket()].head].when;
    }

    /**
     * Advance the clock to @p when, then migrate every overflow entry that
     * now falls inside the window, ahead of any handler at @p when.
     */
    void
    advanceTo(Cycle when)
    {
        curCycle = when;
        while (!overflow.empty() &&
               overflow.front().when - when < kWheelSlots) {
            std::pop_heap(overflow.begin(), overflow.end(), Later{});
            OverflowEntry e = overflow.back();
            overflow.pop_back();
            pushWheel(e.slot, e.when);
        }
    }

    /** Execute the head of cycle @p when's bucket (from nextCycle()). */
    void
    dispatch(Cycle when)
    {
        SW_AUDIT(when >= curCycle,
                 "event time moved backwards (%llu < %llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(curCycle));
        if (when != curCycle)
            advanceTo(when);
        std::uint32_t b = static_cast<std::uint32_t>(when) & kWheelMask;
        Bucket &bucket = buckets[b];
        std::uint32_t slot = bucket.head;
        SW_AUDIT(links[slot].when == when,
                 "wheel bucket %u holds cycle %llu, expected %llu", b,
                 static_cast<unsigned long long>(links[slot].when),
                 static_cast<unsigned long long>(when));
        bucket.head = links[slot].next;
        if (bucket.head == kNil) {
            bucket.tail = kNil;
            occupied[b >> 6] &= ~(std::uint64_t(1) << (b & 63));
            if (occupied[b >> 6] == 0)
                summary &= ~(std::uint64_t(1) << (b >> 6));
        }
        --wheelCount;
        ++numExecuted;
        // Move the handler out and recycle its slot *before* invoking:
        // the callback is free to schedule (and the slab free to hand the
        // slot straight back to it).
        EventFn fn = std::move(slab[slot]);
        freeSlots.push_back(slot);
        {
            // Host-time attribution only; compiled out by default and a
            // single relaxed load when compiled in but disabled.
            SW_PROF_SCOPE(::sw::prof::Zone::EventDispatch);
            fn();
        }
    }

    /** Handler storage; slots are recycled through freeSlots. */
    std::vector<EventFn> slab;
    /** Bucket links, one per slab slot. */
    std::vector<Link> links;
    std::vector<std::uint32_t> freeSlots;
    /** Bucket of cycle c is buckets[c % kWheelSlots]. */
    std::array<Bucket, kWheelSlots> buckets;
    /** Bit per non-empty bucket. */
    std::array<std::uint64_t, kWords> occupied;
    /** Bit per non-zero word of occupied. */
    std::uint64_t summary = 0;
    std::size_t wheelCount = 0;
    /** Min-heap on (when, seq) of events beyond the window. */
    std::vector<OverflowEntry> overflow;
    Cycle curCycle = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
    std::vector<Sweep> sweeps;
    std::uint64_t nextSweepId = 1;
};

} // namespace sw

#endif // SW_SIM_EVENT_QUEUE_HH
