#include "vm/translation.hh"

#include <algorithm>

#include "check/audit.hh"
#include "ckpt/ckpt_io.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"

namespace sw {

TranslationEngine::TranslationEngine(EventQueue &eq, const GpuConfig &config,
                                     MemorySystem &memory,
                                     AddressSpaceManager &spaces)
    : eventq(eq), cfg(config), mem(memory), spaces_(spaces),
      l2Array("l2tlb", config.l2TlbEntries, config.l2TlbWays),
      outstanding(config.l2TlbMshrs + config.inTlbMshrMax),
      pwcCache(config.pwcEntries)
{
    idealMshrs = (cfg.mode == TranslationMode::Ideal);
    l1Arrays.reserve(cfg.numSms);
    l1Mshrs.reserve(cfg.numSms);
    l1WaitQueues.resize(cfg.numSms);
    for (SmId sm = 0; sm < cfg.numSms; ++sm) {
        // Per-SM L1 TLBs are fully associative (ways == entries).
        l1Arrays.emplace_back(strprintf("l1tlb[%u]", sm), cfg.l1TlbEntries,
                              cfg.l1TlbEntries);
        // Sized for the MSHR file; ideal-MSHR mode grows it on demand.
        l1Mshrs.emplace_back(cfg.l1TlbMshrs);
    }
    if (cfg.l2SubEntries > 1) {
        subL2 = std::make_unique<SubEntryTlb>(
            "l2tlb-sub", cfg.l2TlbEntries, cfg.l2TlbWays, cfg.l2SubEntries,
            cfg.l2SubEntrySharing);
    }
    if (cfg.migPartitioning && cfg.numTenants > 1) {
        std::vector<std::pair<std::uint32_t, std::uint32_t>> slices;
        slices.reserve(cfg.numTenants);
        for (Asid t = 0; t < cfg.numTenants; ++t)
            slices.push_back(tenantWayRange(cfg, t));
        if (subL2)
            subL2->setWayPartition(std::move(slices));
        else
            l2Array.setWayPartition(std::move(slices));
    }
    tenantStats_.resize(cfg.numTenants);
}

void
TranslationEngine::setBackend(std::unique_ptr<WalkBackend> backend)
{
    walkBackend = std::move(backend);
}

bool
TranslationEngine::l2Lookup(TranslationKey key, Pfn &pfn)
{
    return subL2 ? subL2->lookup(key, pfn) : l2Array.lookup(key, pfn);
}

void
TranslationEngine::l2Fill(TranslationKey key, Pfn pfn)
{
    if (subL2)
        subL2->fill(key, pfn);
    else
        l2Array.fill(key, pfn);
}

void
TranslationEngine::l2Invalidate(TranslationKey key)
{
    if (subL2)
        subL2->invalidate(key);
    else
        l2Array.invalidate(key);
}

void
TranslationEngine::translate(SmId sm, TranslationKey key, TransDoneFn done)
{
    SW_PROF_SCOPE(prof::Zone::TlbLookup);
    SW_ASSERT(sm < cfg.numSms, "translate from unknown SM %u", sm);
    SW_ASSERT(key.asid < cfg.numTenants, "translate for unknown ASID %u",
              key.asid);
    ++stats_.requests;
    ++tenantStats_[key.asid].requests;
    Cycle start = eventq.now();
    auto fire = [this, sm, key, done, start]() {
        l1Lookup(sm, key, done, start);
    };
    static_assert(EventFn::fitsInline<decltype(fire)>(),
                  "L1 lookup event must not spill to the slab pool");
    eventq.scheduleIn(cfg.l1TlbLatency, std::move(fire));
}

void
TranslationEngine::l1Lookup(SmId sm, TranslationKey key, TransDoneFn done,
                            Cycle start)
{
    Pfn pfn = 0;
    if (l1Arrays[sm].lookup(key, pfn)) {
        ++stats_.l1Hits;
        stats_.translationLatency.add(eventq.now() - start);
        tenantStats_[key.asid].translationLatency.add(eventq.now() - start);
        probe_.emit(Stage::L1Hit, eventq.now(), key, 0, sm);
        done(pfn);
        return;
    }
    ++stats_.l1Misses;
    probe_.emit(Stage::L1Miss, eventq.now(), key, 0, sm);

    L1MshrFile &mshrs = l1Mshrs[sm];
    if (std::vector<L1Waiter> *waiters = mshrs.find(key)) {
        if (idealMshrs ||
            waiters->size() <
                static_cast<std::size_t>(cfg.l1TlbMergesPerMshr)) {
            ++stats_.l1MshrMerges;
            waiters->push_back({done, start});
            return;
        }
        // Merge capacity exhausted: park until this SM resolves something.
        ++stats_.l1MshrFailures;
        l1WaitQueues[sm].push_back({key, done, start});
        return;
    }

    if (!idealMshrs && mshrs.size() >=
        static_cast<std::size_t>(cfg.l1TlbMshrs)) {
        ++stats_.l1MshrFailures;
        l1WaitQueues[sm].push_back({key, done, start});
        return;
    }

    mshrs.insert(key).push_back({done, start});
    sendToL2(sm, key);
}

void
TranslationEngine::drainL1WaitQueue(SmId sm)
{
    auto &queue = l1WaitQueues[sm];
    while (!queue.empty()) {
        std::size_t before = queue.size();
        L1WaitEntry entry = queue.front();
        queue.pop_front();
        l1Lookup(sm, entry.key, entry.done, entry.start);
        if (queue.size() >= before) {
            // No progress: the retried request was parked again.
            break;
        }
    }
}

void
TranslationEngine::sendToL2(SmId sm, TranslationKey key)
{
    auto fire = [this, sm, key]() { l2Access(sm, key); };
    static_assert(EventFn::fitsInline<decltype(fire)>(),
                  "L2 hop event must not spill to the slab pool");
    eventq.scheduleIn(cfg.l2TlbLatency, std::move(fire));
}

void
TranslationEngine::l2Access(SmId sm, TranslationKey key)
{
    SW_PROF_SCOPE(prof::Zone::TlbLookup);
    ++stats_.l2Accesses;
    probe_.emit(Stage::L2Lookup, eventq.now(), key, 0, sm);
    Pfn pfn = 0;
    if (l2Lookup(key, pfn)) {
        ++stats_.l2Hits;
        probe_.emit(Stage::L2Hit, eventq.now(), key, 0, sm);
        resolveL1(sm, key, pfn);
        return;
    }
    ++stats_.l2Misses;
    ++tenantStats_[key.asid].l2Misses;
    probe_.emit(Stage::L2Miss, eventq.now(), key, 0, sm);

    if (!tryHandleL2Miss(sm, key, eventq.now())) {
        // "MSHR failure" (§4.5): the L2 TLB cannot reserve the request.
        // The requester parks until a walk completion frees capacity.
        ++stats_.l2MshrFailures;
        probe_.emit(Stage::MshrFail, eventq.now(), key, 0, sm);
        l2WaitQueue.push_back({sm, key, eventq.now()});
    }
}

bool
TranslationEngine::tryHandleL2Miss(SmId sm, TranslationKey key,
                                   Cycle arrival)
{
    if (L2Track *track = outstanding.find(key)) {
        if (idealMshrs || track->waiterSms.size() <= cfg.l2TlbMergesPerMshr) {
            ++stats_.l2MshrMerges;
            track->waiterSms.push_back(sm);
            probe_.emit(Stage::L2Merge, eventq.now(), key, 0, sm);
            return true;
        }
        return false;
    }

    // Allocate miss-tracking state: a regular MSHR if one is free, else an
    // In-TLB MSHR slot (§4.5).  The In-TLB path is defined on whole L2 TLB
    // entries, so the sub-entry array never takes it (validate() enforces
    // the exclusion).
    bool in_tlb_slot = false;
    if (idealMshrs || regularMshrInUse < cfg.l2TlbMshrs) {
        ++regularMshrInUse;
        stats_.regularMshrPeak =
            std::max<std::uint64_t>(stats_.regularMshrPeak,
                                    regularMshrInUse);
    } else if (!subL2 && cfg.inTlbMshrMax > 0 &&
               l2Array.pendingCount() < cfg.inTlbMshrMax &&
               l2Array.allocPending(key)) {
        in_tlb_slot = true;
        ++stats_.inTlbMshrAllocs;
        stats_.inTlbMshrPeak =
            std::max<std::uint64_t>(stats_.inTlbMshrPeak,
                                    l2Array.pendingCount());
    } else {
        return false;
    }

    SW_AUDIT(idealMshrs || in_tlb_slot ||
             regularMshrInUse <= cfg.l2TlbMshrs,
             "regular L2 MSHR overallocation (%u > %u)",
             regularMshrInUse, cfg.l2TlbMshrs);

    L2Track &track = outstanding.insert(key);
    track.inTlbSlot = in_tlb_slot;
    track.waiterSms.push_back(sm);
    probe_.emit(in_tlb_slot ? Stage::InTlbAlloc : Stage::MshrAlloc,
                eventq.now(), key, 0, sm);
    createWalk(key, arrival);
    return true;
}

void
TranslationEngine::drainL2WaitQueue()
{
    SW_PROF_SCOPE(prof::Zone::TlbLookup);
    while (!l2WaitQueue.empty()) {
        L2WaitEntry entry = l2WaitQueue.front();
        // The blocking walk may have filled this entry's translation.
        Pfn pfn = 0;
        if (l2Lookup(entry.key, pfn)) {
            ++stats_.l2Accesses;
            ++stats_.l2Hits;
            l2WaitQueue.pop_front();
            resolveL1(entry.sm, entry.key, pfn);
            continue;
        }
        if (!tryHandleL2Miss(entry.sm, entry.key, entry.arrival))
            break;
        l2WaitQueue.pop_front();
    }
}

void
TranslationEngine::createWalk(TranslationKey key, Cycle created)
{
    ++stats_.walksCreated;
    SW_ASSERT(walkBackend != nullptr, "no walk backend installed");
    if (mapOnDemand)
        spaces_.tableFor(key.asid).ensureMapped(key.vpn);

    auto fire = [this, key, created]() {
        PageTableBase &pt = spaces_.tableFor(key.asid);
        int level = 0;
        PhysAddr base = 0;
        WalkRequest req;
        req.id = nextWalkId++;
        req.key = key;
        req.created = created;
        if (pwcCache.lookup(pt, key, level, base)) {
            req.cursor = pt.resumeWalk(key.vpn, level, base);
        } else {
            req.cursor = pt.startWalk(key.vpn);
        }
        probe_.emit(Stage::WalkCreated, created, key, req.id);
        probe_.emit(Stage::BackendSubmit, eventq.now(), key, req.id);
        walkBackend->submit(std::move(req));
    };
    static_assert(EventFn::fitsInline<decltype(fire)>(),
                  "walk-creation event must not spill to the slab pool");
    eventq.scheduleIn(cfg.pwcLatency, std::move(fire));
}

void
TranslationEngine::onWalkComplete(const WalkResult &result)
{
    SW_PROF_SCOPE(prof::Zone::TlbLookup);
    if (result.fault) {
        ++stats_.faults;
        probe_.emit({.stage = Stage::Fault, .cycle = eventq.now(),
                     .key = result.key, .id = result.id, .result = &result});
        faults_.record(result.key, 0, eventq.now());
        // UVM-style handling: the driver maps the page, then the walk is
        // replayed from scratch (§5.5).
        eventq.scheduleIn(kOsFaultLatency, [this, key = result.key]() {
            spaces_.tableFor(key.asid).ensureMapped(key.vpn);
            const L2Track *track = outstanding.find(key);
            SW_ASSERT(track != nullptr,
                      "fault replay without tracking state");
            probe_.emit({.stage = Stage::FaultReplay, .cycle = eventq.now(),
                         .key = key, .inTlb = track->inTlbSlot});
            createWalk(key, eventq.now());
            --stats_.walksCreated;   // replay, not a new demand walk
        });
        return;
    }

    // The track leaves the index before its waiters resolve; it stays in
    // its slot until they have.
    std::uint32_t slot = outstanding.take(result.key);
    SW_ASSERT(slot != L2TrackFile::kNoSlot,
              "walk completion without tracker");
    const L2Track &track = outstanding.at(slot);

    if (track.inTlbSlot) {
        l2Array.clearPending(result.key);
        SW_AUDIT(!l2Array.hasPending(result.key),
                 "In-TLB MSHR slot survived walk completion for vpn %llu",
                 static_cast<unsigned long long>(result.key.vpn));
    } else {
        SW_ASSERT(regularMshrInUse > 0, "regular MSHR underflow");
        --regularMshrInUse;
    }
    l2Fill(result.key, result.pfn);
    probe_.emit({.stage = Stage::WalkFill, .cycle = eventq.now(),
                 .key = result.key, .id = result.id, .result = &result});

    ++stats_.walksCompleted;
    stats_.walkQueueDelay.add(result.queueDelay);
    stats_.walkAccessLatency.add(result.accessLatency);
    TenantStats &ts = tenantStats_[result.key.asid];
    ++ts.walksCompleted;
    ts.walkQueueDelay.add(result.queueDelay);

    for (SmId sm : track.waiterSms)
        resolveL1(sm, result.key, result.pfn);
    outstanding.recycle(slot);

    drainL2WaitQueue();
}

void
TranslationEngine::resolveL1(SmId sm, TranslationKey key, Pfn pfn)
{
    l1Arrays[sm].fill(key, pfn);
    L1MshrFile &mshrs = l1Mshrs[sm];
    std::uint32_t slot = mshrs.take(key);
    SW_ASSERT(slot != L1MshrFile::kNoSlot, "L1 resolve without an MSHR");
    Cycle now = eventq.now();
    probe_.emit(Stage::Wakeup, now, key, 0, sm);
    for (const L1Waiter &waiter : mshrs.at(slot)) {
        stats_.translationLatency.add(now - waiter.start);
        tenantStats_[key.asid].translationLatency.add(now - waiter.start);
        waiter.done(pfn);
    }
    mshrs.recycle(slot);
    drainL1WaitQueue(sm);
}

TouchResult
TranslationEngine::functionalTouch(SmId sm, TranslationKey key)
{
    SW_ASSERT(sm < cfg.numSms, "functional touch from unknown SM %u", sm);
    SW_ASSERT(key.asid < cfg.numTenants, "touch for unknown ASID %u",
              key.asid);
    Pfn pfn = 0;
    if (l1Arrays[sm].lookup(key, pfn))
        return TouchResult::L1Hit;
    if (l2Lookup(key, pfn)) {
        l1Arrays[sm].fill(key, pfn);
        return TouchResult::L2Hit;
    }
    // Full functional walk.  Map on first touch (warmup never takes the
    // UVM fault path), consult the PWC, then descend — filling the PWC at
    // exactly the points a timed walker would (see HardwarePtwPool::
    // walkStep), so warmed PWC contents match detailed-walk behaviour.
    PageTableBase &pt = spaces_.tableFor(key.asid);
    pt.ensureMapped(key.vpn);
    int level = 0;
    PhysAddr base = 0;
    WalkCursor cursor;
    if (pwcCache.lookup(pt, key, level, base))
        cursor = pt.resumeWalk(key.vpn, level, base);
    else
        cursor = pt.startWalk(key.vpn);
    while (!cursor.done) {
        int level_read = cursor.level;
        pt.advance(cursor);
        if (!cursor.done && level_read > 1) {
            pwcCache.fill(pt, cursor.level, key, cursor.tableBase);
        }
    }
    SW_ASSERT(!cursor.fault, "functional walk faulted on a mapped page");
    l2Fill(key, cursor.pfn);
    l1Arrays[sm].fill(key, cursor.pfn);
    return TouchResult::Walk;
}

void
TranslationEngine::saveState(CkptWriter &w) const
{
    // The quiesce contract: nothing on the translation path is in flight.
    for (SmId sm = 0; sm < cfg.numSms; ++sm) {
        SW_ASSERT(l1Mshrs[sm].empty() && l1WaitQueues[sm].empty(),
                  "SM %u has L1 translation state in flight at checkpoint",
                  sm);
    }
    SW_ASSERT(outstanding.empty() && l2WaitQueue.empty() &&
              regularMshrInUse == 0,
              "L2 TLB has misses in flight at checkpoint");
    w.section("translation");
    for (const auto &l1 : l1Arrays)
        l1.saveState(w);
    l2Array.saveState(w);
    if (subL2)
        subL2->saveState(w);
    pwcCache.saveState(w);
    faults_.saveState(w);
    w.u64(nextWalkId);
    w.u64(stats_.requests);
    w.u64(stats_.l1Hits);
    w.u64(stats_.l1Misses);
    w.u64(stats_.l1MshrMerges);
    w.u64(stats_.l1MshrFailures);
    w.u64(stats_.l2Accesses);
    w.u64(stats_.l2Hits);
    w.u64(stats_.l2Misses);
    w.u64(stats_.l2MshrMerges);
    w.u64(stats_.l2MshrFailures);
    w.u64(stats_.inTlbMshrAllocs);
    w.u64(stats_.walksCreated);
    w.u64(stats_.walksCompleted);
    w.u64(stats_.faults);
    w.u64(stats_.regularMshrPeak);
    w.u64(stats_.inTlbMshrPeak);
    w.latency(stats_.walkQueueDelay);
    w.latency(stats_.walkAccessLatency);
    w.latency(stats_.translationLatency);
    w.latency(stats_.ptReadLatency);
    // Per-tenant attribution (count pinned by the config digest).
    for (const TenantStats &ts : tenantStats_) {
        w.u64(ts.requests);
        w.u64(ts.l2Misses);
        w.u64(ts.walksCompleted);
        w.latency(ts.walkQueueDelay);
        w.latency(ts.translationLatency);
    }
    SW_ASSERT(walkBackend != nullptr, "checkpoint before backend install");
    walkBackend->saveState(w);
}

void
TranslationEngine::restoreState(CkptReader &r)
{
    r.expectSection("translation");
    for (auto &l1 : l1Arrays)
        l1.restoreState(r);
    l2Array.restoreState(r);
    if (subL2)
        subL2->restoreState(r);
    pwcCache.restoreState(r);
    faults_.restoreState(r);
    nextWalkId = r.u64();
    stats_.requests = r.u64();
    stats_.l1Hits = r.u64();
    stats_.l1Misses = r.u64();
    stats_.l1MshrMerges = r.u64();
    stats_.l1MshrFailures = r.u64();
    stats_.l2Accesses = r.u64();
    stats_.l2Hits = r.u64();
    stats_.l2Misses = r.u64();
    stats_.l2MshrMerges = r.u64();
    stats_.l2MshrFailures = r.u64();
    stats_.inTlbMshrAllocs = r.u64();
    stats_.walksCreated = r.u64();
    stats_.walksCompleted = r.u64();
    stats_.faults = r.u64();
    stats_.regularMshrPeak = r.u64();
    stats_.inTlbMshrPeak = r.u64();
    r.latency(stats_.walkQueueDelay);
    r.latency(stats_.walkAccessLatency);
    r.latency(stats_.translationLatency);
    r.latency(stats_.ptReadLatency);
    for (TenantStats &ts : tenantStats_) {
        ts.requests = r.u64();
        ts.l2Misses = r.u64();
        ts.walksCompleted = r.u64();
        r.latency(ts.walkQueueDelay);
        r.latency(ts.translationLatency);
    }
    SW_ASSERT(walkBackend != nullptr, "restore before backend install");
    walkBackend->restoreState(r);
}

void
TranslationEngine::shootdown(TranslationKey key)
{
    for (auto &l1 : l1Arrays)
        l1.invalidate(key);
    l2Invalidate(key);
}

void
TranslationEngine::flushAsid(Asid asid)
{
    for (auto &l1 : l1Arrays)
        l1.flushAsid(asid);
    if (subL2)
        subL2->flushAsid(asid);
    else
        l2Array.flushAsid(asid);
    pwcCache.flushAsid(asid);
}

void
TranslationEngine::resetStats()
{
    stats_ = Stats{};
    for (TenantStats &ts : tenantStats_)
        ts = TenantStats{};
    for (auto &l1 : l1Arrays)
        l1.resetStats();
    l2Array.resetStats();
    if (subL2)
        subL2->resetStats();
    pwcCache.resetStats();
    if (walkBackend)
        walkBackend->resetStats();
}

void
TranslationEngine::registerStats(StatGroup root)
{
    for (SmId sm = 0; sm < cfg.numSms; ++sm) {
        l1Arrays[sm].registerStats(
            root.group(strprintf("sm%u", sm)).group("l1tlb"));
    }

    StatGroup l1 = root.group("l1tlb");
    l1.counter("hits", &stats_.l1Hits);
    l1.counter("misses", &stats_.l1Misses);
    l1.counter("mshr_merges", &stats_.l1MshrMerges);
    l1.counter("mshr_fail", &stats_.l1MshrFailures);

    StatGroup l2 = root.group("l2tlb");
    l2.counter("accesses", &stats_.l2Accesses);
    l2.counter("hits", &stats_.l2Hits);
    l2.counter("misses", &stats_.l2Misses);
    l2.counter("mshr_merges", &stats_.l2MshrMerges);
    l2.counter("mshr_fail", &stats_.l2MshrFailures);
    l2.counter("regular_mshr_peak", &stats_.regularMshrPeak);
    if (subL2)
        subL2->registerStats(l2.group("array"));
    else
        l2Array.registerStats(l2.group("array"));

    StatGroup intlb = l2.group("intlb_mshr");
    intlb.counter("allocs", &stats_.inTlbMshrAllocs);
    intlb.counter("peak", &stats_.inTlbMshrPeak);
    intlb.counter("alloc_fail", &l2Array.stats().pendingAllocFailures);
    intlb.gauge("occupancy",
                [this]() { return double(l2Array.pendingCount()); });

    StatGroup walks = root.group("walks");
    walks.counter("created", &stats_.walksCreated);
    walks.counter("completed", &stats_.walksCompleted);
    walks.counter("faults", &stats_.faults);
    walks.gauge("outstanding",
                [this]() { return double(outstanding.size()); });
    walks.latency("queue_delay", &stats_.walkQueueDelay);
    walks.latency("access_latency", &stats_.walkAccessLatency);
    walks.latency("pt_read_latency", &stats_.ptReadLatency);

    StatGroup trans = root.group("translation");
    trans.counter("requests", &stats_.requests);
    trans.latency("latency", &stats_.translationLatency);

    // Per-tenant attribution only when tenants exist: the single-tenant
    // registry keeps its exact pre-multi-tenant entry set.
    if (cfg.numTenants > 1) {
        for (Asid t = 0; t < cfg.numTenants; ++t) {
            StatGroup tenant = root.group(strprintf("tenant%u", t));
            TenantStats &ts = tenantStats_[t];
            tenant.counter("requests", &ts.requests);
            tenant.counter("l2_misses", &ts.l2Misses);
            tenant.counter("walks_completed", &ts.walksCompleted);
            tenant.latency("walk_queue_delay", &ts.walkQueueDelay);
            tenant.latency("translation_latency", &ts.translationLatency);
        }
    }

    pwcCache.registerStats(root.group("pwc"));
    faults_.registerStats(root.group("faults"));
    if (walkBackend)
        walkBackend->registerStats(root.group(walkBackend->name()));
}

void
TranslationEngine::registerAudits(Auditor &auditor)
{
    // Running pending counters never drift from an array recount.
    auditor.registerAudit(
        "vm.tlb.pending-count", AuditScope::Continuous,
        [this](AuditContext &ctx) {
            auto check = [&ctx](const TlbArray &tlb) {
                std::uint32_t scanned = tlb.countPendingScan();
                if (tlb.pendingCount() != scanned) {
                    ctx.fail(strprintf(
                        "%s: pending counter %u != array scan %u",
                        tlb.name().c_str(), tlb.pendingCount(), scanned));
                }
            };
            check(l2Array);
            for (const auto &l1 : l1Arrays)
                check(l1);
        });

    // Every outstanding L2 miss holds exactly one miss-tracking slot:
    // a regular MSHR or an In-TLB MSHR (pending L2 TLB way), never both,
    // never neither.
    auditor.registerAudit(
        "vm.l2.mshr-conservation", AuditScope::Continuous,
        [this](AuditContext &ctx) {
            std::uint64_t in_tlb = 0;
            for (TranslationKey key : outstanding.sortedKeys()) {
                const L2Track &track = *outstanding.find(key);
                if (!track.inTlbSlot)
                    continue;
                ++in_tlb;
                if (!l2Array.hasPending(key)) {
                    ctx.fail(strprintf(
                        "outstanding In-TLB track for asid %u vpn %llu has "
                        "no pending L2 TLB way", key.asid,
                        static_cast<unsigned long long>(key.vpn)));
                }
            }
            std::uint64_t regular = outstanding.size() - in_tlb;
            if (regularMshrInUse != regular) {
                ctx.fail(strprintf(
                    "regular MSHRs in use (%u) != regular-slot tracks (%llu)",
                    regularMshrInUse,
                    static_cast<unsigned long long>(regular)));
            }
            if (l2Array.pendingCount() != in_tlb) {
                ctx.fail(strprintf(
                    "L2 TLB pending ways (%u) != In-TLB-slot tracks (%llu)",
                    l2Array.pendingCount(),
                    static_cast<unsigned long long>(in_tlb)));
            }
        });

    // The backend never holds more walks than the engine is tracking:
    // a completion must always find its tracker.
    auditor.registerAudit(
        "vm.l2.walks-vs-backend", AuditScope::Continuous,
        [this](AuditContext &ctx) {
            if (!walkBackend)
                return;
            std::uint64_t backend_inflight = walkBackend->inFlight();
            if (backend_inflight > outstanding.size()) {
                ctx.fail(strprintf(
                    "backend '%s' has %llu walks in flight but only %zu "
                    "outstanding L2 misses are tracked",
                    walkBackend->name().c_str(),
                    static_cast<unsigned long long>(backend_inflight),
                    outstanding.size()));
            }
        });

    // Cross-ASID containment: every valid TLB translation must agree with
    // *its own* address space's page table.  A PFN that belongs to another
    // tenant (or to no mapping at all) is a containment breach.
    auditor.registerAudit(
        "vm.tlb.no-cross-asid-leak", AuditScope::Continuous,
        [this](AuditContext &ctx) {
            auto check = [this, &ctx](const char *where, TranslationKey key,
                                      Pfn pfn) {
                if (key.asid >= spaces_.numSpaces()) {
                    ctx.fail(strprintf(
                        "%s: entry tagged with unknown ASID %u", where,
                        key.asid));
                    return;
                }
                const PageTableBase &pt = spaces_.tableFor(key.asid);
                if (!pt.isMapped(key.vpn) ||
                    pt.translate(key.vpn) != pfn) {
                    ctx.fail(strprintf(
                        "%s: asid %u vpn %llu caches pfn %llu, which is "
                        "not that address space's mapping", where,
                        key.asid,
                        static_cast<unsigned long long>(key.vpn),
                        static_cast<unsigned long long>(pfn)));
                }
            };
            for (const auto &l1 : l1Arrays) {
                l1.forEachValid([&](TranslationKey key, Pfn pfn) {
                    check(l1.name().c_str(), key, pfn);
                });
            }
            if (subL2) {
                subL2->forEachValid([&](TranslationKey key, Pfn pfn) {
                    check(subL2->name().c_str(), key, pfn);
                });
            } else {
                l2Array.forEachValid([&](TranslationKey key, Pfn pfn) {
                    check(l2Array.name().c_str(), key, pfn);
                });
            }
        });

    // Once the machine drains, every L2 TLB miss must have resolved: no
    // leaked In-TLB MSHR or pending entry, no parked requester, no MSHR
    // still charged.
    auditor.registerAudit(
        "vm.l2.no-leaked-miss", AuditScope::Quiescent,
        [this](AuditContext &ctx) {
            if (!outstanding.empty()) {
                ctx.fail(strprintf("%zu L2 misses never resolved",
                                   outstanding.size()));
            }
            if (!l2WaitQueue.empty()) {
                ctx.fail(strprintf("%zu requesters still parked at the "
                                   "L2 TLB", l2WaitQueue.size()));
            }
            if (regularMshrInUse != 0) {
                ctx.fail(strprintf("%u regular L2 MSHRs never released",
                                   regularMshrInUse));
            }
            if (l2Array.pendingCount() != 0) {
                ctx.fail(strprintf("%u In-TLB MSHR slots leaked",
                                   l2Array.pendingCount()));
            }
            for (SmId sm = 0; sm < SmId(l1Mshrs.size()); ++sm) {
                if (!l1Mshrs[sm].empty()) {
                    ctx.fail(strprintf("SM %u: %zu L1 MSHRs never resolved",
                                       sm, l1Mshrs[sm].size()));
                }
                if (!l1WaitQueues[sm].empty()) {
                    ctx.fail(strprintf(
                        "SM %u: %zu requests still parked at the L1 TLB",
                        sm, l1WaitQueues[sm].size()));
                }
            }
            if (walkBackend && walkBackend->inFlight() != 0) {
                ctx.fail(strprintf(
                    "backend '%s' still reports %llu walks in flight",
                    walkBackend->name().c_str(),
                    static_cast<unsigned long long>(
                        walkBackend->inFlight())));
            }
        });
}

void
TranslationEngine::ptAccess(PhysAddr addr, EventFn done)
{
    if (cfg.fixedPtAccessLatency > 0) {
        stats_.ptReadLatency.add(cfg.fixedPtAccessLatency);
        eventq.scheduleIn(cfg.fixedPtAccessLatency, std::move(done));
        return;
    }
    std::uint32_t slot;
    if (!freePtReads.empty()) {
        slot = freePtReads.back();
        freePtReads.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(ptReads.size());
        ptReads.emplace_back();
    }
    ptReads[slot].done = std::move(done);
    ptReads[slot].start = eventq.now();
    MemAccess acc;
    acc.addr = addr;
    acc.write = false;
    acc.pte = true;
    acc.onDone = [this, slot]() { ptReadDone(slot); };
    mem.access(acc);
}

void
TranslationEngine::ptReadDone(std::uint32_t slot)
{
    PtRead &read = ptReads[slot];
    stats_.ptReadLatency.add(eventq.now() - read.start);
    // Free the slot before firing: the continuation usually issues the
    // walk's next read, which then reuses it.
    EventFn done = std::move(read.done);
    freePtReads.push_back(slot);
    done();
}

} // namespace sw
