/**
 * @file
 * Deterministic zero-allocation gate for the simulation hot path.
 *
 * This binary replaces the global operator new with a counting one, then
 * builds and runs the same TLB-resident machine at two instruction quotas
 * four times apart.  Every allocation the run makes in steady state would
 * scale with the quota, so equal totals mean the steady state allocates
 * nothing per event: construction and warm-up (queue slab, MSHR slots,
 * waiter vectors, the PTE read pool) are the only allocations left.  The
 * count is a pure function of the code and the configuration, so the gate
 * holds at tolerance 0 on every host.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/softwalker.hh"
#include "gpu/gpu.hh"
#include "sim/slot_map.hh"
#include "test_util.hh"
#include "vm/address.hh"
#include "workload/generators.hh"

namespace {

std::uint64_t gAllocs = 0;

void *
countedAlloc(std::size_t size)
{
    ++gAllocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++gAllocs;
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    ++gAllocs;
    return std::malloc(size ? size : 1);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace sw;

namespace {

/** Allocations made building @p cfg's machine and running @p quota. */
std::uint64_t
allocsForRun(const GpuConfig &cfg, std::uint64_t quota)
{
    std::uint64_t before = gAllocs;
    {
        // 256 KiB is four 64 KiB pages: every SM's L1 TLB holds the
        // whole footprint after its first misses.
        Gpu gpu(cfg, std::make_unique<StreamingWorkload>(
                         "stream", 256ull << 10, false, 10,
                         StreamingWorkload::Params{}));
        installWalkBackend(gpu);
        Gpu::RunLimits limits;
        limits.warpInstrQuota = quota;
        limits.maxCycles = ~Cycle(0);
        gpu.run(limits);
        EXPECT_EQ(gpu.instructionsIssued(), quota);
    }
    return gAllocs - before;
}

void
expectQuotaIndependent(const GpuConfig &cfg)
{
    std::uint64_t short_run = allocsForRun(cfg, 20000);
    std::uint64_t long_run = allocsForRun(cfg, 80000);
    ::testing::Test::RecordProperty("allocs_20k", std::to_string(short_run));
    ::testing::Test::RecordProperty("allocs_80k", std::to_string(long_run));
    EXPECT_EQ(long_run, short_run)
        << "the 60,000 extra warp instructions allocated "
        << std::int64_t(long_run - short_run) << " times";
}

} // namespace

TEST(ZeroAlloc, HardwarePtwSteadyStateAllocatesNothing)
{
    expectQuotaIndependent(test::smallConfig());
}

TEST(ZeroAlloc, SoftWalkerSteadyStateAllocatesNothing)
{
    expectQuotaIndependent(test::smallSoftWalkerConfig());
}

/**
 * The miss-file table on its own: once a working set of keys has cycled
 * through insert, take and recycle, further cycles over fresh keys reuse
 * slots, waiter buffers and the index, and allocate nothing.
 */
TEST(ZeroAlloc, SlotMapSteadyStateCycleAllocatesNothing)
{
    using Map = SlotMap<TranslationKey, std::vector<std::uint64_t>>;
    Map map(32);
    Vpn next = 0;
    auto cycle = [&map, &next]() {
        TranslationKey live[24];
        for (TranslationKey &key : live) {
            key = {Asid(next % 3), next};
            ++next;
            std::vector<std::uint64_t> &waiters = map.insert(key);
            for (std::uint64_t w = 0; w <= key.vpn % 6; ++w)
                waiters.push_back(w);
        }
        // Out of insertion order, like fills returning.
        for (int i = 0; i < 24; ++i) {
            std::uint32_t slot = map.take(live[(i * 7) % 24]);
            ASSERT_NE(slot, Map::kNoSlot);
            map.recycle(slot);
        }
    };
    for (int warm = 0; warm < 8; ++warm)
        cycle();
    std::uint64_t before = gAllocs;
    for (int round = 0; round < 1000; ++round)
        cycle();
    EXPECT_EQ(gAllocs - before, 0u);
}
