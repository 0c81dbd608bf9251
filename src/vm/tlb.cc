#include "vm/tlb.hh"

#include <algorithm>

#include "check/audit.hh"
#include "ckpt/ckpt_io.hh"
#include "obs/stat_registry.hh"
#include "sim/logging.hh"

namespace sw {

TlbArray::TlbArray(std::string name, std::uint32_t num_entries,
                   std::uint32_t num_ways)
    : name_(std::move(name)), ways(num_ways)
{
    SW_ASSERT(num_entries > 0 && num_ways > 0,
              "TLB must have entries and ways");
    SW_ASSERT(num_entries % num_ways == 0,
              "TLB entries (%u) not divisible by ways (%u)",
              num_entries, num_ways);
    sets = num_entries / num_ways;
    vpns.resize(num_entries);
    states.resize(num_entries, EntryState::Invalid);
    asids.resize(num_entries);
    pfns.resize(num_entries);
    lruTicks.resize(num_entries);
}

void
TlbArray::setWayPartition(
    std::vector<std::pair<std::uint32_t, std::uint32_t>> slices)
{
    for (const auto &[first, count] : slices) {
        SW_ASSERT(count > 0 && first + count <= ways,
                  "%s: way slice [%u, +%u) outside %u ways",
                  name_.c_str(), first, count, ways);
    }
    waySlices = std::move(slices);
}

std::pair<std::uint32_t, std::uint32_t>
TlbArray::victimWays(Asid asid) const
{
    if (asid < waySlices.size())
        return waySlices[asid];
    return {0, ways};
}

std::size_t
TlbArray::findWay(TranslationKey key, EntryState state) const
{
    std::size_t first = setOf(key.vpn) * ways;
    const Vpn *tags = vpns.data() + first;
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (tags[w] == key.vpn && states[first + w] == state &&
            asids[first + w] == key.asid)
            return first + w;
    }
    return kNoWay;
}

std::size_t
TlbArray::pickVictim(TranslationKey key) const
{
    std::size_t first = setOf(key.vpn) * ways;
    auto [way0, waycount] = victimWays(key.asid);
    std::size_t victim = kNoWay;
    for (std::size_t i = first + way0; i < first + way0 + waycount; ++i) {
        if (states[i] == EntryState::Pending)
            continue;
        if (states[i] == EntryState::Invalid)
            return i;
        if (victim == kNoWay || lruTicks[i] < lruTicks[victim])
            victim = i;
    }
    return victim;
}

void
TlbArray::setEntry(std::size_t way, EntryState state, TranslationKey key,
                   Pfn pfn)
{
    states[way] = state;
    asids[way] = key.asid;
    vpns[way] = key.vpn;
    pfns[way] = pfn;
    lruTicks[way] = ++lruCounter;
}

bool
TlbArray::lookup(TranslationKey key, Pfn &pfn)
{
    ++stats_.lookups;
    std::size_t way = findWay(key, EntryState::Valid);
    if (way == kNoWay)
        return false;
    ++stats_.hits;
    lruTicks[way] = ++lruCounter;
    pfn = pfns[way];
    return true;
}

bool
TlbArray::probe(TranslationKey key) const
{
    return findWay(key, EntryState::Valid) != kNoWay;
}

bool
TlbArray::fill(TranslationKey key, Pfn pfn)
{
    ++stats_.fills;

    // Refresh an existing valid entry in place.
    std::size_t way = findWay(key, EntryState::Valid);
    if (way != kNoWay) {
        pfns[way] = pfn;
        lruTicks[way] = ++lruCounter;
        return true;
    }

    std::size_t victim = pickVictim(key);
    if (victim == kNoWay) {
        ++stats_.fillsSkipped;
        return false;
    }
    SW_AUDIT(states[victim] != EntryState::Pending,
             "fill displaced an In-TLB MSHR slot in %s", name_.c_str());
    if (states[victim] == EntryState::Valid)
        ++stats_.evictions;
    setEntry(victim, EntryState::Valid, key, pfn);
    return true;
}

bool
TlbArray::allocPending(TranslationKey key)
{
    // Same-tag pending reservation: merge onto the existing slot (§4.5
    // "we allow the In-TLB MSHR to reserve the same tag in a set index").
    if (hasPending(key))
        return true;

    std::size_t victim = pickVictim(key);
    if (victim == kNoWay) {
        ++stats_.pendingAllocFailures;
        return false;
    }
    if (states[victim] == EntryState::Valid)
        ++stats_.pendingEvictedValid;
    setEntry(victim, EntryState::Pending, key, 0);
    ++numPending;
    ++stats_.pendingAllocs;
    return true;
}

std::uint32_t
TlbArray::countPendingScan() const
{
    return static_cast<std::uint32_t>(
        std::count(states.begin(), states.end(), EntryState::Pending));
}

bool
TlbArray::hasPending(TranslationKey key) const
{
    return findWay(key, EntryState::Pending) != kNoWay;
}

void
TlbArray::clearPending(TranslationKey key)
{
    for (std::size_t way = findWay(key, EntryState::Pending); way != kNoWay;
         way = findWay(key, EntryState::Pending)) {
        states[way] = EntryState::Invalid;
        SW_ASSERT(numPending > 0, "pending underflow");
        --numPending;
    }
    SW_AUDIT(numPending == countPendingScan(),
             "%s: pending counter %u diverged from array scan %u",
             name_.c_str(), numPending, countPendingScan());
}

void
TlbArray::invalidate(TranslationKey key)
{
    std::size_t way = findWay(key, EntryState::Valid);
    if (way != kNoWay)
        states[way] = EntryState::Invalid;
}

void
TlbArray::flushAsid(Asid asid)
{
    for (std::size_t i = 0; i < states.size(); ++i) {
        if (states[i] == EntryState::Valid && asids[i] == asid)
            states[i] = EntryState::Invalid;
    }
}

void
TlbArray::flush()
{
    std::fill(vpns.begin(), vpns.end(), 0);
    std::fill(states.begin(), states.end(), EntryState::Invalid);
    std::fill(asids.begin(), asids.end(), 0);
    std::fill(pfns.begin(), pfns.end(), 0);
    std::fill(lruTicks.begin(), lruTicks.end(), 0);
    numPending = 0;
}

void
TlbArray::registerStats(StatGroup group)
{
    group.counter("lookups", &stats_.lookups);
    group.counter("hits", &stats_.hits);
    group.counter("fills", &stats_.fills);
    group.counter("evictions", &stats_.evictions);
    group.counter("fills_skipped", &stats_.fillsSkipped);
    group.counter("pending_allocs", &stats_.pendingAllocs);
    group.counter("pending_alloc_fail", &stats_.pendingAllocFailures);
    group.counter("pending_evicted_valid", &stats_.pendingEvictedValid);
    group.gauge("misses",
                [this]() { return double(stats_.lookups - stats_.hits); });
    group.gauge("hit_rate", [this]() { return stats_.hitRate(); });
    group.gauge("pending", [this]() { return double(numPending); });
}

void
TlbArray::saveState(CkptWriter &w) const
{
    w.section("tlb");
    w.str(name_);
    w.u32(numEntries());
    for (std::size_t i = 0; i < vpns.size(); ++i) {
        w.u8(std::uint8_t(states[i]));
        w.u32(asids[i]);
        w.u64(vpns[i]);
        w.u64(pfns[i]);
        w.u64(lruTicks[i]);
    }
    w.u64(lruCounter);
    w.u32(numPending);
    w.u64(stats_.lookups);
    w.u64(stats_.hits);
    w.u64(stats_.fills);
    w.u64(stats_.evictions);
    w.u64(stats_.fillsSkipped);
    w.u64(stats_.pendingAllocs);
    w.u64(stats_.pendingAllocFailures);
    w.u64(stats_.pendingEvictedValid);
}

void
TlbArray::restoreState(CkptReader &r)
{
    r.expectSection("tlb");
    std::string saved_name = r.str();
    if (saved_name != name_) {
        fatal("checkpoint TLB \"%s\" restored into \"%s\"",
              saved_name.c_str(), name_.c_str());
    }
    std::uint32_t n = r.u32();
    if (n != vpns.size()) {
        fatal("checkpoint TLB \"%s\" has %u entries, this config has %zu",
              name_.c_str(), n, vpns.size());
    }
    for (std::size_t i = 0; i < vpns.size(); ++i) {
        std::uint8_t state = r.u8();
        if (state > std::uint8_t(EntryState::Pending))
            fatal("checkpoint TLB entry state %u out of range", state);
        states[i] = EntryState(state);
        asids[i] = r.u32();
        vpns[i] = r.u64();
        pfns[i] = r.u64();
        lruTicks[i] = r.u64();
    }
    lruCounter = r.u64();
    numPending = r.u32();
    stats_.lookups = r.u64();
    stats_.hits = r.u64();
    stats_.fills = r.u64();
    stats_.evictions = r.u64();
    stats_.fillsSkipped = r.u64();
    stats_.pendingAllocs = r.u64();
    stats_.pendingAllocFailures = r.u64();
    stats_.pendingEvictedValid = r.u64();
    if (numPending != countPendingScan())
        fatal("checkpoint TLB \"%s\" pending counter disagrees with the "
              "restored array", name_.c_str());
}

} // namespace sw
