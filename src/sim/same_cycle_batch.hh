/**
 * @file
 * Ring and SameCycleBatch: same-cycle fan-out fused into one event.
 *
 * The SM's per-page and per-sector loops call a component (a cache, the
 * L1 TLB, the L2 TLB hop) several times in a row, each call scheduling
 * one event for the same cycle.  Those events are consecutive in the
 * queue's (cycle, seq) order: nothing else runs between them.  A
 * SameCycleBatch keeps such calls as records in a FIFO instead and
 * schedules a single event that drains them, so the queue sees one
 * dispatch where it used to see many, and execution order stays exactly
 * what it was.
 *
 * A call *joins* the component's open batch (the newest one) only if all
 * of these hold:
 *
 *  1. it targets the same cycle as the batch;
 *  2. EventQueue::seqCounter() has not moved since the batch's last
 *     entry, so nothing else was scheduled in between: the event the
 *     call would have scheduled is the very next one after the batch's
 *     last entry in (cycle, seq) order;
 *  3. it is made from inside a handler (EventQueue::dispatching()).  A
 *     test driving a component with runOne() between calls from outside
 *     the queue keeps one dispatch per call.
 *
 * Otherwise the call opens a new batch and schedules one `[this]` event
 * for it.  A joined call takes the sequence number its event would have
 * had (EventQueue::fuse()), so the queue's counters — and the
 * checkpoints that record them — read exactly as without fusion.
 *
 * Batch boundaries are explicit counts, never cycles: two batches for
 * one cycle split by another event drain separately, each from its own
 * event.  A batch closes when its event fires, so a handler that calls
 * back into the component at zero latency opens a new batch behind
 * every entry of the one being drained.  Between two entries the drain
 * runs the queue's sweep hooks (EventQueue::runSweeps()), which
 * therefore observe the same states they did between two events.
 *
 * Batches drain in the order they were opened.  That holds when the
 * component's target cycles never decrease from one batch to the next
 * (a fixed latency added to the clock), which add() asserts.
 */

#ifndef SW_SIM_SAME_CYCLE_BATCH_HH
#define SW_SIM_SAME_CYCLE_BATCH_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace sw {

/**
 * FIFO over a recycled power-of-two ring.  It allocates on the first
 * push, never at construction, doubles when full and never shrinks, so
 * a queue in steady state never touches the allocator.  @p T must be
 * default-constructible and copyable.
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    T &front() { return slots[head]; }
    const T &front() const { return slots[head]; }
    T &back() { return slots[(head + count - 1) & (slots.size() - 1)]; }

    void
    push_back(const T &value)
    {
        if (count == slots.size())
            grow();
        slots[(head + count) & (slots.size() - 1)] = value;
        ++count;
    }

    void
    pop_front()
    {
        SW_ASSERT(count > 0, "pop from an empty ring");
        head = (head + 1) & (slots.size() - 1);
        --count;
    }

  private:
    static constexpr std::size_t kFirstCapacity = 16;

    void
    grow()
    {
        std::vector<T> next(slots.empty() ? kFirstCapacity
                                          : 2 * slots.size());
        for (std::size_t i = 0; i < count; ++i)
            next[i] = std::move(slots[(head + i) & (slots.size() - 1)]);
        slots.swap(next);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

/**
 * One component's same-cycle batches of @p Record (see the file
 * comment).  @p Record is the state one event handler used to capture;
 * the handler given at construction runs once per record, in FIFO
 * order.
 */
template <typename Record>
class SameCycleBatch
{
  public:
    using Handler = Callback<void(const Record &)>;

    SameCycleBatch(EventQueue &eq, Handler handler)
        : eventq(eq), handler(handler)
    {
    }

    SameCycleBatch(const SameCycleBatch &) = delete;
    SameCycleBatch &operator=(const SameCycleBatch &) = delete;

    /** Run the handler on @p record at absolute cycle @p when. */
    void
    add(Cycle when, const Record &record)
    {
        records.push_back(record);
        if (!counts.empty() && when == openCycle &&
            eventq.seqCounter() == openSeq && eventq.dispatching()) {
            ++counts.back();
            eventq.fuse();
        } else {
            SW_ASSERT(counts.empty() || when >= openCycle,
                      "batch for cycle %llu opened behind cycle %llu",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(openCycle));
            counts.push_back(1);
            eventq.schedule(when, [this]() { drain(); });
            openCycle = when;
        }
        openSeq = eventq.seqCounter();
    }

    /** No record left to handle (true at every quiesced tick). */
    bool empty() const { return records.empty(); }

  private:
    /** The front batch's event: handle exactly its own records. */
    void
    drain()
    {
        // Popping the count closes the batch: later calls open a new one.
        std::uint32_t entries = counts.front();
        counts.pop_front();
        for (std::uint32_t i = 0; i < entries; ++i) {
            if (i > 0)
                eventq.runSweeps();
            // Copied out first: the handler may push, and so regrow.
            Record record = records.front();
            records.pop_front();
            handler(record);
        }
    }

    EventQueue &eventq;
    Handler handler;
    Ring<Record> records;
    /** Entries per batch, oldest first; the back one is open. */
    Ring<std::uint32_t> counts;
    Cycle openCycle = 0;
    /** seqCounter() right after the open batch's last entry. */
    std::uint64_t openSeq = 0;
};

} // namespace sw

#endif // SW_SIM_SAME_CYCLE_BATCH_HH
