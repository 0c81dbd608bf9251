#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "check/audit.hh"
#include "ckpt/ckpt_io.hh"
#include "obs/stat_registry.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"

namespace sw {

Cache::Cache(EventQueue &eq, Params params, CacheForwardFn fwd)
    : eventq(eq), params_(std::move(params)), forward(std::move(fwd)),
      mshrs(params_.mshrEntries),
      lookups(eq, [this](const Request &req) { lookup(req); })
{
    SW_ASSERT(params_.ways > 0, "cache '%s' needs at least one way",
              params_.name.c_str());
    SW_ASSERT(std::has_single_bit(params_.lineBytes) &&
                  std::has_single_bit(params_.sectorBytes),
              "line and sector sizes must be powers of two");
    SW_ASSERT(params_.lineBytes % params_.sectorBytes == 0,
              "line size must be a multiple of sector size");
    std::uint64_t num_lines = params_.sizeBytes / params_.lineBytes;
    SW_ASSERT(num_lines > 0 && num_lines % params_.ways == 0,
              "cache lines (%llu) not divisible by ways (%u)",
              static_cast<unsigned long long>(num_lines), params_.ways);
    numSets = static_cast<std::uint32_t>(num_lines / params_.ways);
    lineShift = static_cast<unsigned>(std::countr_zero(params_.lineBytes));
    sectorShift = static_cast<unsigned>(std::countr_zero(params_.sectorBytes));
    sectorsPerLine = params_.lineBytes / params_.sectorBytes;
    SW_ASSERT(sectorsPerLine <= 32, "sector mask limited to 32 sectors");
    numLines = static_cast<std::size_t>(num_lines);
}

void
Cache::claimTagStore()
{
    tagKeys.resize(numLines);
    sectorMasks.resize(numLines);
    lruTicks.resize(numLines);
}

Cache::Place
Cache::locate(PhysAddr addr) const
{
    std::uint64_t line_addr = addr >> lineShift;
    std::uint64_t set = line_addr % numSets;
    std::uint32_t sector = static_cast<std::uint32_t>(addr >> sectorShift) &
                           (sectorsPerLine - 1);
    return {static_cast<std::size_t>(set) * params_.ways,
            line_addr / numSets + 1, 1u << sector};
}

std::size_t
Cache::findWay(const Place &place) const
{
    const std::uint64_t *keys = tagKeys.data() + place.firstWay;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (keys[w] == place.key)
            return place.firstWay + w;
    }
    return kNoWay;
}

void
Cache::access(PhysAddr addr, bool write, MemDoneFn on_done)
{
    ++stats_.accesses;
    if (tagKeys.empty())
        claimTagStore();
    lookups.add(eventq.now() + params_.latency, {addr, write, on_done});
}

bool
Cache::isResident(PhysAddr addr) const
{
    if (tagKeys.empty())
        return false;
    Place place = locate(addr);
    std::size_t way = findWay(place);
    return way != kNoWay && (sectorMasks[way] & place.sectorBit);
}

void
Cache::flush()
{
    std::fill(tagKeys.begin(), tagKeys.end(), 0);
    std::fill(sectorMasks.begin(), sectorMasks.end(), 0);
    std::fill(lruTicks.begin(), lruTicks.end(), 0);
}

void
Cache::lookup(const Request &req, bool retry)
{
    SW_PROF_SCOPE(prof::Zone::CacheDram);
    PhysAddr addr = req.addr;
    Place place = locate(addr);
    std::size_t way = findWay(place);
    if (way != kNoWay) {
        if (sectorMasks[way] & place.sectorBit) {
            if (!retry)
                ++stats_.hits;
            lruTicks[way] = ++lruCounter;
            req.onDone();
            return;
        }
        if (!retry)
            ++stats_.sectorMisses;
    }

    if (!retry)
        ++stats_.misses;

    // Writes allocate like reads in this model (write-allocate,
    // fetch-on-write); the timing consequence is identical.
    std::uint64_t sa = sectorAddr(addr);
    if (Waiters *waiters = mshrs.find(sa)) {
        if (waiters->size() <
            static_cast<std::size_t>(params_.maxMergesPerMshr)) {
            ++stats_.mshrMerges;
            waiters->push_back(req.onDone);
            return;
        }
        // Merge capacity exhausted: treat like a full MSHR file.
        ++stats_.mshrFailures;
        waitingForMshr.push_back(req);
        return;
    }

    if (mshrs.size() >= params_.mshrEntries) {
        ++stats_.mshrFailures;
        waitingForMshr.push_back(req);
        return;
    }

    mshrs.insert(sa).push_back(req.onDone);
    SW_AUDIT(mshrs.size() <= params_.mshrEntries,
             "%s: MSHR file overallocated (%zu > %u)",
             params_.name.c_str(), mshrs.size(), params_.mshrEntries);
    forward(addr, req.write, [this, addr]() { handleFill(addr); });
}

void
Cache::handleFill(PhysAddr addr)
{
    SW_PROF_SCOPE(prof::Zone::CacheDram);
    install(addr);

    // The MSHR leaves the index before its waiters run, so the sector
    // reads as unallocated to them; the waiters run from the slot, which
    // returns to the free list only after the last one.
    std::uint32_t slot = mshrs.take(sectorAddr(addr));
    SW_ASSERT(slot != MshrFile::kNoSlot, "fill for sector without an MSHR");
    for (auto &waiter : mshrs.at(slot))
        waiter();
    mshrs.recycle(slot);

    retryWaiting();
}

void
Cache::install(PhysAddr addr)
{
    Place place = locate(addr);
    const std::uint64_t *keys = tagKeys.data() + place.firstWay;

    // Existing line: just set the sector bit.  Otherwise the victim is
    // the first invalid way, else the least recently used one.
    std::size_t victim = kNoWay;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (keys[w] == place.key) {
            std::size_t way = place.firstWay + w;
            sectorMasks[way] |= place.sectorBit;
            lruTicks[way] = ++lruCounter;
            return;
        }
        if (keys[w] == 0 && victim == kNoWay)
            victim = place.firstWay + w;
    }

    if (victim == kNoWay) {
        const std::uint64_t *ticks = lruTicks.data() + place.firstWay;
        std::uint32_t lru = 0;
        for (std::uint32_t w = 1; w < params_.ways; ++w) {
            if (ticks[w] < ticks[lru])
                lru = w;
        }
        victim = place.firstWay + lru;
        ++stats_.evictions;
    }
    tagKeys[victim] = place.key;
    sectorMasks[victim] = place.sectorBit;
    lruTicks[victim] = ++lruCounter;
}

void
Cache::retryWaiting()
{
    SW_PROF_SCOPE(prof::Zone::CacheDram);
    // Re-issue queued requests now that an MSHR has freed.  Each retry goes
    // through the full lookup path again (it may now hit thanks to the
    // fill).  A retry can park itself again (e.g. its target MSHR is still
    // merge-full); stop as soon as the queue makes no progress.
    while (!waitingForMshr.empty() && mshrs.size() < params_.mshrEntries) {
        std::size_t before = waitingForMshr.size();
        Request req = waitingForMshr.front();
        waitingForMshr.pop_front();
        lookup(req, /*retry=*/true);
        if (waitingForMshr.size() >= before)
            break;
    }
}

void
Cache::saveState(CkptWriter &w) const
{
    SW_ASSERT(mshrs.empty() && waitingForMshr.empty() && lookups.empty(),
              "cache '%s' checkpointed with misses in flight",
              params_.name.c_str());
    w.section("cache");
    w.str(params_.name);
    // Tag stores are mostly invalid early in a run: write valid lines
    // sparsely, keyed by their index in the tag store.
    std::uint32_t valid = std::uint32_t(
        tagKeys.size() - std::count(tagKeys.begin(), tagKeys.end(), 0));
    w.u32(std::uint32_t(numLines));
    w.u32(valid);
    for (std::uint32_t i = 0; i < tagKeys.size(); ++i) {
        if (tagKeys[i] == 0)
            continue;
        w.u32(i);
        w.u64(tagKeys[i] - 1);
        w.u32(sectorMasks[i]);
        w.u64(lruTicks[i]);
    }
    w.u64(lruCounter);
    w.u64(stats_.accesses);
    w.u64(stats_.hits);
    w.u64(stats_.misses);
    w.u64(stats_.sectorMisses);
    w.u64(stats_.mshrMerges);
    w.u64(stats_.mshrFailures);
    w.u64(stats_.evictions);
}

void
Cache::restoreState(CkptReader &r)
{
    r.expectSection("cache");
    std::string name = r.str();
    if (name != params_.name) {
        fatal("checkpoint cache '%s' restored into '%s'", name.c_str(),
              params_.name.c_str());
    }
    std::uint32_t total = r.u32();
    if (total != numLines) {
        fatal("checkpoint cache '%s' has %u lines, this config has %zu",
              name.c_str(), total, numLines);
    }
    std::uint32_t valid = r.u32();
    if (valid > total) {
        fatal("checkpoint cache '%s' has %u valid of %u lines",
              name.c_str(), valid, total);
    }
    if (tagKeys.empty())
        claimTagStore();
    flush();
    for (std::uint32_t n = 0; n < valid; ++n) {
        std::uint32_t idx = r.u32();
        if (idx >= total)
            fatal("checkpoint cache line index %u out of range", idx);
        if (tagKeys[idx] != 0)
            fatal("checkpoint cache line index %u duplicated", idx);
        std::uint64_t tag = r.u64();
        if (tag == ~std::uint64_t(0))
            fatal("checkpoint cache line %u has tag out of range", idx);
        tagKeys[idx] = tag + 1;
        sectorMasks[idx] = r.u32();
        lruTicks[idx] = r.u64();
    }
    lruCounter = r.u64();
    stats_.accesses = r.u64();
    stats_.hits = r.u64();
    stats_.misses = r.u64();
    stats_.sectorMisses = r.u64();
    stats_.mshrMerges = r.u64();
    stats_.mshrFailures = r.u64();
    stats_.evictions = r.u64();
}

void
Cache::registerStats(StatGroup group)
{
    group.counter("accesses", &stats_.accesses);
    group.counter("hits", &stats_.hits);
    group.counter("misses", &stats_.misses);
    group.counter("sector_misses", &stats_.sectorMisses);
    group.counter("mshr_merges", &stats_.mshrMerges);
    group.counter("mshr_fail", &stats_.mshrFailures);
    group.counter("evictions", &stats_.evictions);
    group.gauge("miss_rate", [this]() { return stats_.missRate(); });
    group.gauge("outstanding_mshrs",
                [this]() { return double(mshrs.size()); });
}

} // namespace sw
