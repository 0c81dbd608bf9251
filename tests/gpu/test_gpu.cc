/** @file Integration tests for the top-level GPU. */

#include <gtest/gtest.h>

#include "core/softwalker.hh"
#include "gpu/gpu.hh"
#include "test_util.hh"
#include "workload/generators.hh"

using namespace sw;

namespace {

std::unique_ptr<Workload>
streamWorkload()
{
    StreamingWorkload::Params params;
    return std::make_unique<StreamingWorkload>("s", 256ull << 20, false,
                                               10, params);
}

TEST(Gpu, ConstructsFromTable3Defaults)
{
    Gpu gpu(test::smallConfig(), streamWorkload());
    EXPECT_EQ(gpu.numSms(), 4u);
    EXPECT_TRUE(gpu.backendInstalled());
    EXPECT_EQ(gpu.cycles(), 0u);
}

TEST(Gpu, RunIssuesExactlyTheQuota)
{
    Gpu gpu(test::smallConfig(), streamWorkload());
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 100;
    gpu.run(limits);
    EXPECT_EQ(gpu.instructionsIssued(), 100u);
    EXPECT_GT(gpu.cycles(), 0u);
    EXPECT_GT(gpu.performance(), 0.0);
}

TEST(Gpu, RunSegmentsReArmOneAuditSweep)
{
    // Every segment re-arms the periodic audit; the re-arm must replace
    // the previous subscription, not pile up duplicate sweeps.
    GpuConfig cfg = test::smallConfig();
    cfg.auditIntervalCycles = 500;
    Gpu gpu(cfg, streamWorkload());
    Gpu::RunLimits limits;
    gpu.runSegment(50, 0, limits);
    std::size_t after_first = gpu.eventQueue().numPeriodicChecks();
    EXPECT_EQ(after_first, 1u);
    gpu.runSegment(50, 0, limits);
    EXPECT_EQ(gpu.eventQueue().numPeriodicChecks(), after_first);
    EXPECT_EQ(gpu.instructionsIssued(), 100u);
}

TEST(Gpu, MaxCyclesCapsTheRun)
{
    Gpu gpu(test::smallConfig(), streamWorkload());
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 1000000;
    limits.maxCycles = 500;
    gpu.run(limits);
    EXPECT_LE(gpu.cycles(), 500u);
    EXPECT_LT(gpu.instructionsIssued(), 1000000u);
}

TEST(Gpu, MaxActiveWarpsRoundRobinsAcrossSms)
{
    Gpu gpu(test::smallConfig(), streamWorkload());
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 50;
    limits.maxActiveWarps = 6;   // 4 SMs: 2,2,1,1
    gpu.run(limits);
    std::uint64_t total = 0;
    for (SmId sm = 0; sm < gpu.numSms(); ++sm)
        total += gpu.sm(sm).stats().warpInstrs;
    EXPECT_EQ(total, 50u);
    EXPECT_GT(gpu.sm(0).stats().warpInstrs, 0u);
}

TEST(Gpu, WarmupResetsStatsAndMeasuredRegion)
{
    Gpu gpu(test::smallConfig(), streamWorkload());
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 200;
    limits.warmupInstrs = 100;
    gpu.run(limits);
    // SM stats were zeroed after warmup: only the measured instructions
    // remain visible.
    EXPECT_LE(gpu.instructionsIssued(), 200u);
    EXPECT_GT(gpu.instructionsIssued(), 0u);
    EXPECT_LT(gpu.measuredCycles(), gpu.cycles());
}

TEST(Gpu, IdealModeUsesHugePool)
{
    GpuConfig cfg = test::smallConfig();
    cfg.mode = TranslationMode::Ideal;
    Gpu gpu(cfg, streamWorkload());
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 100;
    gpu.run(limits);
    EXPECT_EQ(gpu.engine().stats().l2MshrFailures, 0u);
    EXPECT_EQ(gpu.instructionsIssued(), 100u);
}

TEST(Gpu, HashedPageTableMode)
{
    GpuConfig cfg = test::smallConfig();
    cfg.pageTableKind = PageTableKind::Hashed;
    Gpu gpu(cfg, streamWorkload());
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 100;
    gpu.run(limits);
    EXPECT_EQ(gpu.instructionsIssued(), 100u);
    EXPECT_GT(gpu.engine().stats().walksCompleted, 0u);
}

TEST(Gpu, LargePageMode)
{
    GpuConfig cfg = test::smallConfig();
    cfg.pageBytes = 2ull * 1024 * 1024;
    Gpu gpu(cfg, streamWorkload());
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 100;
    gpu.run(limits);
    EXPECT_EQ(gpu.instructionsIssued(), 100u);
}

TEST(Gpu, TraceHookDeliversInstructions)
{
    Gpu gpu(test::smallConfig(), streamWorkload());
    int traced = 0;
    gpu.setTraceHook([&](SmId, WarpId, Cycle, const WarpInstr &) {
        ++traced;
    });
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 40;
    gpu.run(limits);
    EXPECT_EQ(traced, 40);
}

TEST(Gpu, AggregateSmStatsSumsAcrossSms)
{
    Gpu gpu(test::smallConfig(), streamWorkload());
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 100;
    gpu.run(limits);
    Sm::Stats agg = gpu.aggregateSmStats();
    EXPECT_EQ(agg.warpInstrs, 100u);
    EXPECT_GT(agg.dataAccesses, 0u);
}

TEST(Gpu, EventQueueDrainsAfterRun)
{
    Gpu gpu(test::smallConfig(), streamWorkload());
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 60;
    gpu.run(limits);
    EXPECT_TRUE(gpu.eventQueue().empty())
        << "no leaked events once all warps retire";
}

TEST(GpuDeath, RunWithoutBackendPanics)
{
    Gpu gpu(test::smallSoftWalkerConfig(), streamWorkload());
    Gpu::RunLimits limits;
    EXPECT_DEATH(gpu.run(limits), "backend");
}

/** Property sweep: quota is honoured exactly across machine shapes. */
class GpuShapes
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(GpuShapes, QuotaExact)
{
    auto [sms, warps] = GetParam();
    GpuConfig cfg = test::smallConfig();
    cfg.numSms = sms;
    cfg.maxWarpsPerSm = warps;
    Gpu gpu(cfg, streamWorkload());
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 64;
    gpu.run(limits);
    EXPECT_EQ(gpu.instructionsIssued(), 64u);
    EXPECT_TRUE(gpu.eventQueue().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GpuShapes,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(1u, 4u, 16u)));

} // namespace
