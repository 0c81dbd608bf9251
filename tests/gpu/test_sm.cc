/** @file Unit tests for the SM model (issue, coalescing, stalls). */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "gpu/sm.hh"
#include "workload/generators.hh"

using namespace sw;

namespace {

/** A scripted workload emitting a fixed per-instruction address set. */
class ScriptedWorkload : public Workload
{
  public:
    WarpInstr
    next(SmId, WarpId, Rng &) override
    {
        ++calls;
        return instr;
    }

    std::uint64_t footprintBytes() const override { return 1 << 30; }
    std::string name() const override { return "scripted"; }
    bool irregular() const override { return false; }

    WarpInstr instr;
    int calls = 0;
};

class SmTest : public ::testing::Test
{
  protected:
    Sm::Params
    params()
    {
        Sm::Params p;
        p.id = 0;
        p.numWarps = 4;
        p.warpSize = 32;
        p.pageBytes = 64 * 1024;
        p.sectorBytes = 32;
        return p;
    }

    std::unique_ptr<Sm>
    makeSm(Workload &wl, Cycle translate_latency = 20,
           Cycle data_latency = 30)
    {
        return std::make_unique<Sm>(
            eq, params(), wl,
            [this, translate_latency](Vpn vpn, Callback<void(Pfn)> done) {
                translations.push_back(vpn);
                eq.scheduleIn(translate_latency, [vpn, done]() {
                    done(vpn + 1000);   // fake PFN
                });
            },
            [this, data_latency](PhysAddr pa, bool write,
                                 Callback<void()> done) {
                dataAccesses.push_back({pa, write});
                eq.scheduleIn(data_latency, done);
            });
    }

    EventQueue eq;
    std::vector<Vpn> translations;
    std::vector<std::pair<PhysAddr, bool>> dataAccesses;
};

TEST_F(SmTest, CoalescesLanesInOnePageToOneTranslation)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 32;
    for (std::uint32_t lane = 0; lane < 32; ++lane)
        wl.instr.addrs[lane] = 0x10000 + lane * 4;   // one page, one sector+
    std::uint64_t quota = 1;
    auto sm = makeSm(wl);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_EQ(translations.size(), 1u);
    EXPECT_EQ(sm->stats().translationsRequested, 1u);
}

TEST_F(SmTest, CoalescesToUniqueSectors)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 32;
    for (std::uint32_t lane = 0; lane < 32; ++lane)
        wl.instr.addrs[lane] = 0x10000 + lane * 4;   // 128 B span: 4 sectors
    std::uint64_t quota = 1;
    auto sm = makeSm(wl);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_EQ(dataAccesses.size(), 4u);
    EXPECT_EQ(sm->stats().dataAccesses, 4u);
}

TEST_F(SmTest, DivergentLanesGetPerPageTranslations)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 8;
    for (std::uint32_t lane = 0; lane < 8; ++lane)
        wl.instr.addrs[lane] = VirtAddr(lane) * (64 * 1024) + 64;
    std::uint64_t quota = 1;
    auto sm = makeSm(wl);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_EQ(translations.size(), 8u);
    EXPECT_EQ(dataAccesses.size(), 8u);
}

TEST_F(SmTest, PhysicalAddressComposedFromPfn)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x12345678;
    std::uint64_t quota = 1;
    auto sm = makeSm(wl);
    sm->start(&quota, 1);
    eq.run();
    ASSERT_EQ(dataAccesses.size(), 1u);
    Vpn vpn = 0x12345678ull >> 16;
    PhysAddr expect = ((vpn + 1000) << 16) | (0x5678ull & ~31ull);
    EXPECT_EQ(dataAccesses[0].first, expect);
}

TEST_F(SmTest, WritesPropagate)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.write = true;
    wl.instr.addrs[0] = 0x9999;
    std::uint64_t quota = 1;
    auto sm = makeSm(wl);
    sm->start(&quota, 1);
    eq.run();
    ASSERT_EQ(dataAccesses.size(), 1u);
    EXPECT_TRUE(dataAccesses[0].second);
}

TEST_F(SmTest, QuotaStopsIssue)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 10;
    auto sm = makeSm(wl);
    sm->start(&quota, 4);
    eq.run();
    EXPECT_EQ(sm->stats().warpInstrs, 10u);
    EXPECT_EQ(quota, 0u);
    EXPECT_EQ(sm->activeWarps(), 0u) << "all warps retired";
}

TEST_F(SmTest, ComputeGapDelaysIssue)
{
    ScriptedWorkload wl;
    wl.instr.computeGap = 500;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 1;
    auto sm = makeSm(wl, 1, 1);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_GE(eq.now(), 500u);
    EXPECT_EQ(sm->stats().computeCycles, 500u);
}

TEST_F(SmTest, IssuePortSerialisesWarps)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 4;
    auto sm = makeSm(wl);
    sm->start(&quota, 4);
    eq.run();
    // 4 warps each issued one instruction through the single port.
    EXPECT_EQ(sm->stats().issueSlotCycles, 4u);
}

TEST_F(SmTest, MemStallAccountedWhenAllWarpsBlocked)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 2;
    auto sm = makeSm(wl, /*translate=*/1000, /*data=*/1000);
    sm->start(&quota, 2);
    eq.run();
    EXPECT_GT(sm->stats().memStallCycles, 1000u);
}

TEST_F(SmTest, NoStallWhenWarpsStaggered)
{
    ScriptedWorkload wl;
    wl.instr.computeGap = 1;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 40;
    auto sm = makeSm(wl, 1, 1);   // memory faster than issue
    sm->start(&quota, 4);
    eq.run();
    EXPECT_LT(sm->stats().memStallCycles, eq.now() / 2);
}

TEST_F(SmTest, ReservePwIssueHasPriority)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 0;   // no user work
    auto sm = makeSm(wl);
    sm->start(&quota, 0);
    Cycle end = sm->reservePwIssue(5, 0);
    EXPECT_EQ(end, eq.now() + 5);
    EXPECT_EQ(sm->stats().pwIssueCycles, 5u);
    Cycle next = sm->reservePwIssue(2, 0);
    EXPECT_EQ(next, end + 2);
}

TEST_F(SmTest, WarpMemLatencyMeasured)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 1;
    auto sm = makeSm(wl, 100, 200);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_EQ(sm->stats().warpMemLatency.count, 1u);
    EXPECT_GE(sm->stats().warpMemLatency.minv, 300u);
}

TEST_F(SmTest, AccessLatencyMeasuredFromIssue)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 1;
    auto sm = makeSm(wl, 100, 200);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_EQ(sm->stats().accessLatency.count, 1u);
    EXPECT_GE(sm->stats().accessLatency.minv, 300u);
}

TEST_F(SmTest, TraceHookSeesEveryInstruction)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 2;
    wl.instr.addrs[0] = 0x1000;
    wl.instr.addrs[1] = 0x2000;
    std::uint64_t quota = 6;
    auto sm = makeSm(wl);
    int traced = 0;
    sm->traceHook = [&](SmId, WarpId, Cycle, const WarpInstr &instr) {
        ++traced;
        EXPECT_EQ(instr.activeLanes, 2u);
    };
    sm->start(&quota, 2);
    eq.run();
    EXPECT_EQ(traced, 6);
}

TEST_F(SmTest, ResetStatsMidRunKeepsConsistency)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 20;
    auto sm = makeSm(wl);
    sm->start(&quota, 2);
    eq.run(50);
    sm->resetStats();
    eq.run();
    sm->finalizeStats();
    EXPECT_LT(sm->stats().warpInstrs, 20u);
    EXPECT_GT(sm->stats().warpInstrs, 0u);
}

TEST_F(SmTest, OnWarpRetiredFires)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 3;
    auto sm = makeSm(wl);
    int retired = 0;
    sm->onWarpRetired = [&]() { ++retired; };
    sm->start(&quota, 3);
    eq.run();
    EXPECT_EQ(retired, 3);
}

/**
 * Recording translate/data hooks for request-order tests.  Translations
 * are held until the test delivers them, in any order; data accesses
 * complete one cycle after issue.  The hooks capture one pointer to this
 * record, and take their completion by deduced type, so the test pins the
 * SM's request order independently of the completion types.
 */
struct RequestRecorder
{
    EventQueue *eq = nullptr;
    std::vector<std::pair<Vpn, std::function<void(Pfn)>>> translations;
    std::vector<PhysAddr> data;

    std::unique_ptr<Sm>
    makeSm(EventQueue &queue, Workload &wl)
    {
        eq = &queue;
        Sm::Params p;
        p.numWarps = 1;
        RequestRecorder *rec = this;
        return std::make_unique<Sm>(
            queue, p, wl,
            [rec](Vpn vpn, auto done) {
                rec->translations.emplace_back(vpn, done);
            },
            [rec](PhysAddr pa, bool, auto done) {
                rec->data.push_back(pa);
                rec->eq->scheduleIn(1, done);
            });
    }
};

/** Fake PFN the recorder's deliveries use for @p vpn. */
PhysAddr
sectorPa(Vpn vpn, std::uint64_t sector)
{
    return ((vpn + 1000) << 16) | (sector * 32);
}

TEST(SmRequestOrder, CoalescedRequestsKeepFirstAppearanceOrder)
{
    // 32 lanes over 5 interleaved pages: lane i touches page (2i mod 5)
    // at sector (3 * (i / 5) + page) mod 5, at a lane-dependent byte
    // within the sector.  Each page sees 5 distinct sectors; 7 lanes
    // repeat a sector their page already requested.
    const Vpn pages[5] = {0x40, 0x12, 0x33, 0x05, 0x27};
    ScriptedWorkload wl;
    wl.instr.activeLanes = 32;
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
        std::uint32_t page = (2 * lane) % 5;
        std::uint64_t sector = (3 * (lane / 5) + page) % 5;
        wl.instr.addrs[lane] = (pages[page] << 16) + sector * 32 +
                               (lane % 8) * 4;
    }
    EventQueue eq;
    RequestRecorder rec;
    auto sm = rec.makeSm(eq, wl);
    std::uint64_t quota = 1;
    sm->start(&quota, 1);
    eq.run();

    // One translation per page, in order of first appearance.
    ASSERT_EQ(rec.translations.size(), 5u);
    const Vpn vpn_order[5] = {0x40, 0x33, 0x27, 0x12, 0x05};
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(rec.translations[i].first, vpn_order[i]) << "request " << i;
    EXPECT_TRUE(rec.data.empty()) << "no data access before translation";

    // Each page's unique sectors, in order of first appearance within it.
    std::map<Vpn, std::vector<std::uint64_t>> sectors = {
        {0x40, {0, 3, 1, 4, 2}},
        {0x12, {1, 4, 2, 0, 3}},
        {0x33, {2, 0, 3, 1, 4}},
        {0x05, {3, 1, 4, 2, 0}},
        {0x27, {4, 2, 0, 3, 1}},
    };
    // Deliver the translations out of request order.
    for (std::size_t idx : {3u, 0u, 4u, 2u, 1u}) {
        auto [vpn, done] = rec.translations[idx];
        std::size_t before = rec.data.size();
        done(vpn + 1000);
        std::vector<PhysAddr> expect;
        for (std::uint64_t sector : sectors.at(vpn))
            expect.push_back(sectorPa(vpn, sector));
        std::vector<PhysAddr> got(rec.data.begin() + before, rec.data.end());
        EXPECT_EQ(got, expect) << "page 0x" << std::hex << vpn;
    }
    eq.run();

    EXPECT_EQ(rec.data.size(), 25u) << "repeated sectors are dropped";
    EXPECT_EQ(sm->stats().translationsRequested, 5u);
    EXPECT_EQ(sm->stats().dataAccesses, 25u);
    EXPECT_EQ(sm->stats().accessLatency.count, 25u);
    EXPECT_EQ(sm->stats().warpMemLatency.count, 1u);
    EXPECT_EQ(sm->activeWarps(), 0u) << "the warp completed and retired";
}

TEST(SmRequestOrder, ZeroActiveLanesIssueNoRequests)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 0;
    wl.instr.addrs[0] = 0x1000;   // ignored: lane 0 is inactive
    EventQueue eq;
    RequestRecorder rec;
    auto sm = rec.makeSm(eq, wl);
    std::uint64_t quota = 3;
    sm->start(&quota, 1);
    eq.run();
    EXPECT_TRUE(rec.translations.empty());
    EXPECT_TRUE(rec.data.empty());
    EXPECT_EQ(sm->stats().warpInstrs, 3u);
    EXPECT_EQ(sm->stats().translationsRequested, 0u);
    EXPECT_EQ(sm->activeWarps(), 0u);
}

TEST(SmDeathTest, WarpSizePastInstructionLanesIsRejected)
{
    // WarpInstr carries 32 lane addresses; a wider warp would read past
    // them when it coalesces.
    ScriptedWorkload wl;
    EventQueue eq;
    Sm::Params p;
    p.warpSize = 64;
    EXPECT_DEATH(Sm(eq, p, wl, nullptr, nullptr), "warp size 64");
}

} // namespace
