#include "vm/ptw.hh"

#include <algorithm>

#include "check/audit.hh"
#include "ckpt/ckpt_io.hh"
#include "obs/sampler.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"

namespace sw {

HardwarePtwPool::HardwarePtwPool(EventQueue &eq, Params params,
                                 const AddressSpaceManager &aspaces,
                                 PageWalkCache &cache, PtAccessFn pt_access,
                                 WalkCompleteFn on_complete,
                                 const Probe *probe_in)
    : eventq(eq), params_(params), spaces(aspaces), pwc(cache),
      ptAccess(pt_access), onComplete(on_complete),
      probe(probe_in ? *probe_in : Probe::kSilent)
{
    SW_ASSERT(params_.numWalkers > 0, "need at least one walker");
    SW_ASSERT(params_.pwbPorts > 0, "need at least one PWB port");
    active.resize(params_.numWalkers);
    idleSlots.reserve(params_.numWalkers);
    for (std::uint32_t i = 0; i < params_.numWalkers; ++i)
        idleSlots.push_back(params_.numWalkers - 1 - i);
    portFree.assign(params_.pwbPorts, 0);
}

Cycle
HardwarePtwPool::reservePort()
{
    // Pick the earliest-free port; each PWB CAM operation occupies it for
    // one cycle.  With few ports and many walkers this becomes the
    // dispatch-rate bottleneck Fig 15 sweeps.
    std::size_t best = 0;
    for (std::size_t i = 1; i < portFree.size(); ++i) {
        if (portFree[i] < portFree[best])
            best = i;
    }
    Cycle start = std::max(eventq.now(), portFree[best]);
    portFree[best] = start + 1;
    return start + 1;
}

std::uint64_t
HardwarePtwPool::nhaKey(const WalkRequest &req) const
{
    std::uint64_t ptes_per_sector = params_.nhaSectorBytes / kPteBytes;
    std::uint64_t sector =
        req.key.vpn / std::max<std::uint64_t>(1, ptes_per_sector);
    // The sector index needs fewer than 40 bits; the ASID tag above it
    // keeps tenants' sectors disjoint (ASID-0 keys unchanged).
    return (std::uint64_t(req.key.asid) << 40) | sector;
}

void
HardwarePtwPool::submit(WalkRequest req)
{
    ++stats_.submitted;
    ++inFlightCount;
    stats_.peakInFlight = std::max(stats_.peakInFlight, inFlightCount);

    Cycle enq_done = reservePort();
    ++enqInTransit;
    auto fire = [this, req = std::move(req)]() mutable {
        SW_ASSERT(enqInTransit > 0, "PWB enqueue transit underflow");
        --enqInTransit;
        if (pwb.size() < params_.pwbEntries) {
            pwb.push_back(std::move(req));
        } else {
            ++stats_.pwbOverflows;
            overflow.push_back(std::move(req));
        }
        dispatch();
    };
    static_assert(EventFn::fitsInline<decltype(fire)>(),
                  "PWB enqueue event must not spill to the slab pool");
    eventq.schedule(enq_done, std::move(fire));
}

void
HardwarePtwPool::dispatch()
{
    SW_PROF_SCOPE(prof::Zone::PtwWalk);
    while (!idleSlots.empty() && !(pwb.empty() && overflow.empty())) {
        std::uint32_t slot = idleSlots.back();
        idleSlots.pop_back();
        ++activeWalkers;
        SW_AUDIT(activeWalkers <= params_.numWalkers,
                 "more active walkers (%u) than the pool has (%u)",
                 activeWalkers, params_.numWalkers);

        WalkRequest req;
        if (!pwb.empty()) {
            req = std::move(pwb.front());
            pwb.pop_front();
        } else {
            req = std::move(overflow.front());
            overflow.pop_front();
        }
        // Backfill the PWB from the overflow spill.
        while (!overflow.empty() && pwb.size() < params_.pwbEntries) {
            pwb.push_back(std::move(overflow.front()));
            overflow.pop_front();
        }

        ActiveWalk &walk = active[slot];
        walk.primary = std::move(req);
        walk.coalesced.clear();
        walk.live = true;

        // NHA: absorb queued walks whose leaf PTEs share this walk's
        // sector of the page table (Shin et al., MICRO'18).  The ASID-
        // qualified key restricts merging to one tenant's page table.
        if (params_.nhaCoalescing &&
            spaces.tableFor(walk.primary.key.asid).usesPwc()) {
            std::uint64_t key = nhaKey(walk.primary);
            std::uint64_t limit = params_.nhaSectorBytes / kPteBytes;
            auto absorb = [&](std::deque<WalkRequest> &queue) {
                for (auto it = queue.begin();
                     it != queue.end() &&
                     walk.coalesced.size() + 1 < limit;) {
                    if (nhaKey(*it) == key && it->key != walk.primary.key) {
                        walk.coalesced.push_back(std::move(*it));
                        ++stats_.nhaMerged;
                        it = queue.erase(it);
                    } else {
                        ++it;
                    }
                }
            };
            absorb(pwb);
            absorb(overflow);
        }

        Cycle deq_done = reservePort();
        eventq.schedule(deq_done, [this, slot]() {
            ActiveWalk &w = active[slot];
            w.started = eventq.now();
            w.cursor = w.primary.cursor;
            stats_.queueDelay.add(w.started - w.primary.created);
            probe.emit(Stage::WalkDispatch, w.started, w.primary.key,
                       w.primary.id, slot);
            for (const auto &rider : w.coalesced) {
                stats_.queueDelay.add(w.started - rider.created);
                probe.emit(Stage::WalkDispatch, w.started, rider.key,
                           rider.id, slot);
            }
            walkStep(slot);
        });
    }
}

void
HardwarePtwPool::walkStep(std::uint64_t slot)
{
    SW_PROF_SCOPE(prof::Zone::PtwWalk);
    ActiveWalk &walk = active[slot];
    SW_ASSERT(walk.live, "walk step on an idle walker");
    if (walk.cursor.done) {
        finishWalk(walk);
        return;
    }

    const PageTableBase &pt = spaces.tableFor(walk.primary.key.asid);
    PhysAddr addr = pt.pteAddr(walk.cursor);
    ++stats_.memReads;
    probe.emit(Stage::PtRead, eventq.now(), walk.primary.key,
               walk.primary.id, std::uint32_t(slot));
    ptAccess(addr, [this, slot]() {
        ActiveWalk &w = active[slot];
        const PageTableBase &table = spaces.tableFor(w.primary.key.asid);
        int level_read = w.cursor.level;
        table.advance(w.cursor);
        if (!w.cursor.done && level_read > 1) {
            // The read returned the base of the next-lower table: cache it
            // so later walks can skip the levels above it.
            pwc.fill(table, w.cursor.level,
                     TranslationKey{w.primary.key.asid, w.cursor.vpn},
                     w.cursor.tableBase);
        }
        if (w.cursor.done) {
            finishWalk(w);
        } else {
            walkStep(slot);
        }
    });
}

void
HardwarePtwPool::finishWalk(ActiveWalk &walk)
{
    SW_PROF_SCOPE(prof::Zone::PtwWalk);
    Cycle now = eventq.now();
    Cycle access = now - walk.started;

    auto complete_one = [&](const WalkRequest &req, Pfn pfn, bool fault) {
        WalkResult result;
        result.id = req.id;
        result.key = req.key;
        result.pfn = pfn;
        result.fault = fault;
        result.queueDelay = walk.started - req.created;
        result.accessLatency = access;
        ++stats_.completed;
        stats_.accessLatency.add(access);
        SW_ASSERT(inFlightCount > 0, "in-flight underflow");
        --inFlightCount;
        onComplete(result);
    };

    complete_one(walk.primary, walk.cursor.pfn, walk.cursor.fault);
    for (const auto &rider : walk.coalesced) {
        // Riders resolve through their own address space (the NHA key is
        // ASID-qualified, so in practice it is the primary's).
        const PageTableBase &pt = spaces.tableFor(rider.key.asid);
        bool mapped = pt.isMapped(rider.key.vpn);
        complete_one(rider, mapped ? pt.translate(rider.key.vpn) : 0,
                     !mapped);
    }

    walk.live = false;
    walk.coalesced.clear();
    std::uint32_t slot = std::uint32_t(&walk - active.data());
    idleSlots.push_back(slot);
    SW_ASSERT(activeWalkers > 0, "active walker underflow");
    --activeWalkers;
    dispatch();
}

void
HardwarePtwPool::saveState(CkptWriter &w) const
{
    // Checkpoints are taken at a quiesced tick: the transient walk state
    // (queues, active slots, in-transit counters) must all be empty —
    // anything else means the caller checkpointed mid-flight.
    SW_ASSERT(pwb.empty() && overflow.empty() && activeWalkers == 0 &&
              inFlightCount == 0 && enqInTransit == 0,
              "hardware PTW pool checkpointed while walks are in flight");
    w.section("hw_ptw");
    w.u64(stats_.submitted);
    w.u64(stats_.completed);
    w.u64(stats_.nhaMerged);
    w.u64(stats_.pwbOverflows);
    w.u64(stats_.memReads);
    w.latency(stats_.queueDelay);
    w.latency(stats_.accessLatency);
    w.u64(stats_.peakInFlight);
    // Port next-free cycles are absolute times and shape the resumed
    // timeline; idle-slot order decides which walker slot the next walk
    // lands in (observable through the tracer).
    w.u32(std::uint32_t(portFree.size()));
    for (Cycle free_at : portFree)
        w.u64(free_at);
    w.u32(std::uint32_t(idleSlots.size()));
    for (std::uint32_t slot : idleSlots)
        w.u32(slot);
}

void
HardwarePtwPool::restoreState(CkptReader &r)
{
    r.expectSection("hw_ptw");
    stats_.submitted = r.u64();
    stats_.completed = r.u64();
    stats_.nhaMerged = r.u64();
    stats_.pwbOverflows = r.u64();
    stats_.memReads = r.u64();
    r.latency(stats_.queueDelay);
    r.latency(stats_.accessLatency);
    stats_.peakInFlight = r.u64();
    std::uint32_t ports = r.u32();
    if (ports != portFree.size()) {
        fatal("checkpoint PTW pool has %u ports, this config has %zu",
              ports, portFree.size());
    }
    for (auto &free_at : portFree)
        free_at = r.u64();
    std::uint32_t idle = r.u32();
    if (idle != params_.numWalkers) {
        fatal("checkpoint PTW pool has %u idle walkers of %u (not "
              "quiesced?)", idle, params_.numWalkers);
    }
    idleSlots.clear();
    for (std::uint32_t i = 0; i < idle; ++i) {
        std::uint32_t slot = r.u32();
        if (slot >= params_.numWalkers)
            fatal("checkpoint PTW idle slot %u out of range", slot);
        idleSlots.push_back(slot);
    }
}

void
HardwarePtwPool::registerStats(StatGroup group)
{
    group.counter("submitted", &stats_.submitted);
    group.counter("completed", &stats_.completed);
    group.counter("nha_merged", &stats_.nhaMerged);
    group.counter("pwb_overflows", &stats_.pwbOverflows);
    group.counter("mem_reads", &stats_.memReads);
    group.counter("peak_inflight", &stats_.peakInFlight);
    group.latency("queue_delay", &stats_.queueDelay);
    group.latency("access_latency", &stats_.accessLatency);
    group.gauge("inflight", [this]() { return double(inFlightCount); });
    group.gauge("busy_walkers", [this]() { return double(activeWalkers); });
    group.gauge("pwb_occupancy",
                [this]() { return double(pwbOccupancy()); });
}

void
HardwarePtwPool::registerGauges(TimeSeriesSampler &sampler)
{
    sampler.gauge("ptw_busy_walkers",
                  [this]() { return double(activeWalkers); });
    sampler.gauge("ptw_queue_depth",
                  [this]() { return double(pwbOccupancy()); });
}

void
HardwarePtwPool::registerAudits(Auditor &auditor)
{
    // PW slots allocated == released: every walker is either idle or
    // accounted as active, and the live flags agree with the counter.
    auditor.registerAudit(
        "vm.ptw.slot-conservation", AuditScope::Continuous,
        [this](AuditContext &ctx) {
            if (activeWalkers + idleSlots.size() != params_.numWalkers) {
                ctx.fail(strprintf(
                    "active (%u) + idle (%zu) walkers != pool size (%u)",
                    activeWalkers, idleSlots.size(), params_.numWalkers));
            }
            std::uint64_t live = 0;
            for (const auto &walk : active)
                if (walk.live)
                    ++live;
            if (live != activeWalkers) {
                ctx.fail(strprintf(
                    "live walk slots (%llu) != active walker counter (%u)",
                    static_cast<unsigned long long>(live), activeWalkers));
            }
        });

    // Walks in flight match sum(queues) + sum(walkers): nothing is lost
    // between the submit port, the PWB, the overflow spill, and the
    // walkers (including NHA-coalesced riders).
    auditor.registerAudit(
        "vm.ptw.inflight-conservation", AuditScope::Continuous,
        [this](AuditContext &ctx) {
            std::uint64_t walking = 0;
            for (const auto &walk : active)
                if (walk.live)
                    walking += 1 + walk.coalesced.size();
            std::uint64_t accounted =
                enqInTransit + pwb.size() + overflow.size() + walking;
            if (accounted != inFlightCount) {
                ctx.fail(strprintf(
                    "in-flight %llu != enq-transit %llu + PWB %zu + "
                    "overflow %zu + walking %llu",
                    static_cast<unsigned long long>(inFlightCount),
                    static_cast<unsigned long long>(enqInTransit),
                    pwb.size(), overflow.size(),
                    static_cast<unsigned long long>(walking)));
            }
        });
}

} // namespace sw
