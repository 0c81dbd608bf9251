#include "ladder.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "vm/address_space.hh"
#include "vm/page_walk_cache.hh"
#include "vm/ptw.hh"
#include "vm/translation.hh"

namespace perfbench {

namespace {

using namespace sw;

/** Replays per rung; the median ns per call is reported. */
constexpr int kReps = 3;
/** Events the bare-queue rung executes per replay. */
constexpr std::uint64_t kQueueEvents = 200000;
/** Pages warmed and then re-translated per hit-rung block (< L1 TLB). */
constexpr std::size_t kHitBlock = 16;
/** Walks in flight per walk-rung batch (the pool's walker count). */
constexpr std::size_t kWalkBatch = 32;
/** Fixed page-table read latency of the walk rung, in cycles. */
constexpr Cycle kPtReadCycles = 100;

struct Timed
{
    double seconds = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t events = 0;

    double ns() const { return calls ? seconds * 1e9 / double(calls) : 0.0; }
    double eventsPerCall() const
    {
        return calls ? double(events) / double(calls) : 0.0;
    }
};

/** Median-by-ns of kReps replays of @p rung. */
template <typename Fn>
Timed
medianOf(Fn rung)
{
    std::vector<Timed> reps;
    for (int i = 0; i < kReps; ++i)
        reps.push_back(rung());
    std::sort(reps.begin(), reps.end(), [](const Timed &a, const Timed &b) {
        return a.ns() < b.ns();
    });
    return reps[reps.size() / 2];
}

HardwarePtwPool::Params
poolParams(const GpuConfig &cfg)
{
    HardwarePtwPool::Params pool;
    pool.numWalkers = cfg.numPtws;
    pool.pwbEntries = cfg.pwbEntries;
    pool.pwbPorts = cfg.pwbPorts;
    pool.nhaCoalescing = cfg.nhaCoalescing;
    pool.nhaSectorBytes = cfg.sectorBytes;
    return pool;
}

/** L1/L2 TLB + PWC + hardware PTW pool + cache/DRAM, as Gpu wires them. */
struct TranslationStack
{
    explicit TranslationStack(const GpuConfig &cfg)
        : alloc(cfg.pageBytes), spaces(cfg, alloc), mem(eq, cfg),
          engine(eq, cfg, mem, spaces)
    {
        engine.setBackend(std::make_unique<HardwarePtwPool>(
            eq, poolParams(cfg), spaces, engine.pwc(),
            [this](PhysAddr addr, std::function<void()> done) {
                engine.ptAccess(addr, std::move(done));
            },
            engine.completionFn()));
    }

    EventQueue eq;
    FrameAllocator alloc;
    AddressSpaceManager spaces;
    MemorySystem mem;
    TranslationEngine engine;
};

/** Bare queue at a steady depth: every event schedules its successor. */
Timed
bareQueue(std::uint64_t depth)
{
    EventQueue eq;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    std::uint64_t left = kQueueEvents;
    struct Tick
    {
        EventQueue *eq;
        std::uint64_t *lcg;
        std::uint64_t *left;

        void
        operator()() const
        {
            if (*left == 0)
                return;
            --*left;
            *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
            eq->scheduleIn(1 + (*lcg >> 58), Tick{*this});
        }
    };
    for (std::uint64_t i = 0; i < std::max<std::uint64_t>(depth, 1); ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        eq.schedule(1 + (lcg >> 58), Tick{&eq, &lcg, &left});
    }
    Clock::time_point start = Clock::now();
    eq.run();
    Timed t;
    t.seconds = secondsBetween(start, Clock::now());
    t.events = eq.eventsExecuted();
    t.calls = t.events;
    return t;
}

/** Cold translate() of every captured page, drained per instruction. */
Timed
coldTranslate(const GpuConfig &cfg, const Capture &cap)
{
    TranslationStack s(cfg);
    std::uint64_t resolved = 0;
    Timed t;
    Clock::time_point start = Clock::now();
    std::uint32_t begin = 0;
    for (std::size_t i = 0; i < cap.instrs(); ++i) {
        SmId sm = cap.sm[i] % cfg.numSms;
        for (std::uint32_t p = begin; p < cap.pageEnd[i]; ++p) {
            s.engine.translate(sm, TranslationKey{0, cap.pages[p]},
                               [&resolved](Pfn) { ++resolved; });
        }
        t.calls += cap.pageEnd[i] - begin;
        begin = cap.pageEnd[i];
        s.eq.run();
    }
    t.seconds = secondsBetween(start, Clock::now());
    t.events = s.eq.eventsExecuted();
    SW_ASSERT(resolved == t.calls, "ladder translate lost a completion");
    return t;
}

/**
 * L1 TLB hits: warm a block of pages on SM 0 (untimed), then time
 * translating the same block again.
 */
Timed
hitTranslate(const GpuConfig &cfg, const Capture &cap)
{
    TranslationStack s(cfg);
    std::uint64_t resolved = 0;
    Timed t;
    auto issue = [&](std::size_t from, std::size_t to) {
        for (std::size_t p = from; p < to; ++p) {
            s.engine.translate(0, TranslationKey{0, cap.pages[p]},
                               [&resolved](Pfn) { ++resolved; });
        }
        s.eq.run();
    };
    for (std::size_t from = 0; from < cap.pages.size(); from += kHitBlock) {
        std::size_t to = std::min(from + kHitBlock, cap.pages.size());
        issue(from, to);
        std::uint64_t events = s.eq.eventsExecuted();
        Clock::time_point start = Clock::now();
        issue(from, to);
        t.seconds += secondsBetween(start, Clock::now());
        t.events += s.eq.eventsExecuted() - events;
        t.calls += to - from;
    }
    return t;
}

/** Hardware PTW walks of every captured page, in batches of kWalkBatch. */
Timed
walks(const GpuConfig &cfg, const Capture &cap)
{
    EventQueue eq;
    FrameAllocator alloc(cfg.pageBytes);
    AddressSpaceManager spaces(cfg, alloc);
    PageWalkCache pwc(cfg.pwcEntries);
    std::uint64_t completed = 0;
    HardwarePtwPool pool(
        eq, poolParams(cfg), spaces, pwc,
        [&eq](PhysAddr, std::function<void()> done) {
            eq.scheduleIn(kPtReadCycles, [done = std::move(done)]() {
                done();
            });
        },
        [&completed](const WalkResult &) { ++completed; });

    PageTableBase &pt = spaces.tableFor(0);
    std::vector<WalkRequest> reqs(cap.pages.size());
    for (std::size_t i = 0; i < cap.pages.size(); ++i) {
        pt.ensureMapped(cap.pages[i]);
        reqs[i].id = i + 1;
        reqs[i].key = TranslationKey{0, cap.pages[i]};
        reqs[i].cursor = pt.startWalk(cap.pages[i]);
    }
    Timed t;
    Clock::time_point start = Clock::now();
    for (std::size_t from = 0; from < reqs.size(); from += kWalkBatch) {
        std::size_t to = std::min(from + kWalkBatch, reqs.size());
        for (std::size_t i = from; i < to; ++i) {
            reqs[i].created = eq.now();
            pool.submit(reqs[i]);
        }
        eq.run();
    }
    t.seconds = secondsBetween(start, Clock::now());
    t.calls = reqs.size();
    t.events = eq.eventsExecuted();
    SW_ASSERT(completed == t.calls, "ladder walk lost a completion");
    return t;
}

/** Data sector reads through L1D -> L2D -> DRAM, drained per instruction. */
Timed
dataAccesses(const GpuConfig &cfg, const Capture &cap)
{
    EventQueue eq;
    MemorySystem mem(eq, cfg);
    FrameAllocator alloc(cfg.pageBytes);
    AddressSpaceManager spaces(cfg, alloc);
    PageTableBase &pt = spaces.tableFor(0);
    std::vector<PhysAddr> phys(cap.sectors.size());
    for (std::size_t i = 0; i < cap.sectors.size(); ++i) {
        VirtAddr va = cap.sectors[i];
        phys[i] = pt.ensureMapped(va / cfg.pageBytes) * cfg.pageBytes +
                  va % cfg.pageBytes;
    }
    std::uint64_t done = 0;
    Timed t;
    Clock::time_point start = Clock::now();
    std::uint32_t begin = 0;
    for (std::size_t i = 0; i < cap.instrs(); ++i) {
        SmId sm = cap.sm[i] % cfg.numSms;
        for (std::uint32_t s = begin; s < cap.sectorEnd[i]; ++s) {
            MemAccess acc;
            acc.addr = phys[s];
            acc.sm = sm;
            acc.onDone = [&done]() { ++done; };
            mem.access(std::move(acc));
        }
        t.calls += cap.sectorEnd[i] - begin;
        begin = cap.sectorEnd[i];
        eq.run();
    }
    t.seconds = secondsBetween(start, Clock::now());
    t.events = eq.eventsExecuted();
    SW_ASSERT(done == t.calls, "ladder access lost a completion");
    return t;
}

} // namespace

Rungs
runLadder(const GpuConfig &cfg, const Capture &capture,
          std::uint64_t queue_depth)
{
    Rungs r;
    r.eventNs = medianOf([&] { return bareQueue(queue_depth); }).ns();
    if (capture.pages.empty())
        return r;
    r.translateNs = medianOf([&] { return coldTranslate(cfg, capture); }).ns();
    Timed hit = medianOf([&] { return hitTranslate(cfg, capture); });
    r.lookupNs = hit.ns();
    r.lookupEvents = hit.eventsPerCall();
    Timed walk = medianOf([&] { return walks(cfg, capture); });
    r.walkNs = walk.ns();
    r.walkEvents = walk.eventsPerCall();
    Timed access = medianOf([&] { return dataAccesses(cfg, capture); });
    r.accessNs = access.ns();
    r.accessEvents = access.eventsPerCall();
    return r;
}

} // namespace perfbench
