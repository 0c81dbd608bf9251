#include "gpu/sm.hh"

#include <algorithm>

#include "ckpt/ckpt_io.hh"
#include "obs/cycle_ledger.hh"
#include "obs/stat_registry.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"

namespace sw {

Sm::Sm(EventQueue &eq, Params params, Workload &wl,
       SmTranslateFn translate_fn, SmDataAccessFn data_fn)
    : eventq(eq), params_(params), workload(wl),
      translate(translate_fn), dataAccess(data_fn),
      geometry(params.pageBytes),
      rng(params.rngSeed * 0x100000001b3ULL + params.id),
      issueRetries(eq, [this](const WarpId &warp) { tryIssue(warp); })
{
    SW_ASSERT(params_.numWarps > 0, "SM needs warps");
    SW_ASSERT(params_.warpSize > 0 &&
                  params_.warpSize <= WarpInstr{}.addrs.size(),
              "SM warp size %u outside 1..%zu lanes", params_.warpSize,
              WarpInstr{}.addrs.size());
    SW_ASSERT(params_.pageBytes % params_.sectorBytes == 0,
              "page size must be a multiple of the sector size");
    warps.resize(params_.numWarps);
}

void
Sm::start(std::uint64_t *instr_quota, std::uint32_t active_warps,
          Cycle skew_base, Cycle skew_stride)
{
    quota = instr_quota;
    std::uint32_t count = std::min(active_warps, params_.numWarps);
    for (WarpId w = 0; w < count; ++w) {
        warps[w].live = true;
        ++liveWarps;
    }
    if (ledger) {
        ledger->smSchedState(params_.id, eventq.now(), liveWarps > 0,
                             liveWarps > 0 && blockedWarps >= liveWarps);
    }
    for (WarpId w = 0; w < count; ++w) {
        Cycle delay = skew_base + skew_stride * w;
        if (delay == 0) {
            fetchAndSchedule(w);
        } else {
            eventq.scheduleIn(delay, [this, w]() { fetchAndSchedule(w); });
        }
    }
}

Cycle
Sm::reservePwIssue(std::uint32_t slots, Asid walkAsid)
{
    Cycle start = std::max(eventq.now(), nextIssueFree);
    nextIssueFree = start + slots;
    stats_.pwIssueCycles += slots;
    if (ledger)
        ledger->pwReserve(params_.id, start, start + slots, walkAsid);
    return start + slots;
}

void
Sm::fetchAndSchedule(WarpId warp)
{
    SW_PROF_SCOPE(prof::Zone::SmExec);
    WarpState &ws = warps[warp];
    SW_ASSERT(ws.live, "fetch on a dead warp");
    if (*quota == 0) {
        retireWarp(warp);
        return;
    }
    --*quota;
    ws.pending = workload.next(params_.id, warp, rng);
    stats_.computeCycles += ws.pending.computeGap;
    eventq.scheduleIn(ws.pending.computeGap,
                      [this, warp]() { tryIssue(warp); });
}

void
Sm::tryIssue(WarpId warp)
{
    Cycle now = eventq.now();
    if (nextIssueFree > now) {
        // Issue port busy (another warp or the PW Warp): retry when free.
        issueRetries.add(nextIssueFree, warp);
        return;
    }
    nextIssueFree = now + 1;
    ++stats_.issueSlotCycles;
    ++stats_.warpInstrs;
    execMemInstr(warp);
}

void
Sm::execMemInstr(WarpId warp)
{
    SW_PROF_SCOPE(prof::Zone::SmExec);
    WarpState &ws = warps[warp];
    const WarpInstr &instr = ws.pending;
    ws.issuedAt = eventq.now();

    if (traceHook)
        traceHook(params_.id, warp, ws.issuedAt, instr);

    // Coalesce the warp's lanes: unique pages for translation, unique
    // sectors within each page for data accesses.  A repeated sector
    // always repeats within its page, so only lanes joining an existing
    // group need the duplicate scan.
    std::uint32_t lanes = std::min<std::uint32_t>(instr.activeLanes,
                                                  params_.warpSize);
    Vpn vpns[32] = {};
    std::uint64_t sectors[32] = {};   // unique sectors, in lane order
    std::uint32_t groups = 0;
    std::uint32_t total_sectors = 0;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        VirtAddr va = instr.addrs[lane];
        Vpn vpn = geometry.vpnOf(va);
        std::uint64_t sector = va / params_.sectorBytes;
        std::uint32_t group = 0;
        while (group < groups && vpns[group] != vpn)
            ++group;
        bool repeat = false;
        if (group == groups) {
            vpns[groups++] = vpn;
        } else {
            repeat = std::find(sectors, sectors + total_sectors, sector) !=
                     sectors + total_sectors;
        }
        ws.laneGroup[lane] = repeat ? kNoGroup : std::uint8_t(group);
        if (!repeat)
            sectors[total_sectors++] = sector;
    }

    if (total_sectors == 0) {
        // Degenerate instruction: nothing to do, move on next cycle.
        eventq.scheduleIn(1, [this, warp]() { fetchAndSchedule(warp); });
        return;
    }

    ws.outstanding = total_sectors;
    enterBlocked(warp);
    stats_.translationsRequested += groups;

    for (std::uint32_t group = 0; group < groups; ++group) {
        translate(vpns[group], [this, warp, group](Pfn pfn) {
            translationDone(warp, group, pfn);
        });
    }
}

void
Sm::translationDone(WarpId warp, std::uint32_t group, Pfn pfn)
{
    // The warp stays blocked until every sector completes, so its
    // pending instruction is still the one whose lanes formed the group.
    const WarpState &ws = warps[warp];
    const WarpInstr &instr = ws.pending;
    std::uint32_t lanes = std::min<std::uint32_t>(instr.activeLanes,
                                                  params_.warpSize);
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        if (ws.laneGroup[lane] != group)
            continue;
        std::uint64_t off = geometry.offsetOf(instr.addrs[lane]) /
                            params_.sectorBytes * params_.sectorBytes;
        ++stats_.dataAccesses;
        dataAccess(geometry.composePa(pfn, off), instr.write,
                   [this, warp]() {
                       stats_.accessLatency.add(eventq.now() -
                                                warps[warp].issuedAt);
                       accessDone(warp);
                   });
    }
}

void
Sm::accessDone(WarpId warp)
{
    SW_PROF_SCOPE(prof::Zone::SmExec);
    WarpState &ws = warps[warp];
    SW_ASSERT(ws.outstanding > 0, "access completion underflow");
    if (--ws.outstanding == 0) {
        stats_.warpMemLatency.add(eventq.now() - ws.issuedAt);
        leaveBlocked(warp);
        fetchAndSchedule(warp);
    }
}

void
Sm::enterBlocked(WarpId warp)
{
    WarpState &ws = warps[warp];
    SW_ASSERT(!ws.blocked, "double block");
    ws.blocked = true;
    ++blockedWarps;
    updateStallWindow();
}

void
Sm::leaveBlocked(WarpId warp)
{
    WarpState &ws = warps[warp];
    SW_ASSERT(ws.blocked, "unblock of a running warp");
    ws.blocked = false;
    SW_ASSERT(blockedWarps > 0, "blocked warp underflow");
    --blockedWarps;
    updateStallWindow();
}

void
Sm::retireWarp(WarpId warp)
{
    WarpState &ws = warps[warp];
    ws.live = false;
    SW_ASSERT(liveWarps > 0, "live warp underflow");
    --liveWarps;
    updateStallWindow();
    if (onWarpRetired)
        onWarpRetired();
}

void
Sm::updateStallWindow()
{
    bool stalled_now = liveWarps > 0 && blockedWarps >= liveWarps;
    Cycle now = eventq.now();
    if (stalled_now && !fullyStalled) {
        fullyStalled = true;
        stallStart = now;
    } else if (!stalled_now && fullyStalled) {
        fullyStalled = false;
        stats_.memStallCycles += now - stallStart;
    }
    if (ledger)
        ledger->smSchedState(params_.id, now, liveWarps > 0, stalled_now);
}

void
Sm::saveState(CkptWriter &w) const
{
    // At a drained barrier every warp has retired (start() re-activates
    // them when the next segment begins), so warp state needs no bytes.
    SW_ASSERT(liveWarps == 0 && blockedWarps == 0 && !fullyStalled &&
                  issueRetries.empty(),
              "SM %u checkpointed with live warps", params_.id);
    w.section("sm");
    w.u32(params_.id);
    std::uint64_t rng_state[4];
    rng.snapshot(rng_state);
    for (std::uint64_t word : rng_state)
        w.u64(word);
    w.u64(nextIssueFree);
    w.u64(stats_.warpInstrs);
    w.u64(stats_.issueSlotCycles);
    w.u64(stats_.pwIssueCycles);
    w.u64(stats_.computeCycles);
    w.u64(stats_.memStallCycles);
    w.u64(stats_.translationsRequested);
    w.u64(stats_.dataAccesses);
    w.latency(stats_.warpMemLatency);
    w.latency(stats_.accessLatency);
}

void
Sm::restoreState(CkptReader &r)
{
    r.expectSection("sm");
    std::uint32_t id = r.u32();
    if (id != params_.id)
        fatal("checkpoint SM %u restored into SM %u", id, params_.id);
    std::uint64_t rng_state[4];
    for (auto &word : rng_state)
        word = r.u64();
    rng.restore(rng_state);
    nextIssueFree = r.u64();
    stats_.warpInstrs = r.u64();
    stats_.issueSlotCycles = r.u64();
    stats_.pwIssueCycles = r.u64();
    stats_.computeCycles = r.u64();
    stats_.memStallCycles = r.u64();
    stats_.translationsRequested = r.u64();
    stats_.dataAccesses = r.u64();
    r.latency(stats_.warpMemLatency);
    r.latency(stats_.accessLatency);
}

void
Sm::registerStats(StatGroup group)
{
    group.counter("warp_instrs", &stats_.warpInstrs);
    group.counter("issue_slot_cycles", &stats_.issueSlotCycles);
    group.counter("pw_issue_cycles", &stats_.pwIssueCycles);
    group.counter("compute_cycles", &stats_.computeCycles);
    group.counter("mem_stall_cycles", &stats_.memStallCycles);
    group.counter("translations", &stats_.translationsRequested);
    group.counter("data_accesses", &stats_.dataAccesses);
    group.latency("warp_mem_latency", &stats_.warpMemLatency);
    group.latency("access_latency", &stats_.accessLatency);
    group.gauge("stalled_warps",
                [this]() { return double(blockedWarps); });
}

} // namespace sw
