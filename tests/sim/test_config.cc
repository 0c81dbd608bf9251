/** @file Unit tests for GpuConfig (Table 3 defaults and validation). */

#include <gtest/gtest.h>

#include "sim/config.hh"

using namespace sw;

TEST(Config, Table3Defaults)
{
    GpuConfig cfg = makeDefaultConfig();
    EXPECT_EQ(cfg.numSms, 46u);
    EXPECT_EQ(cfg.maxWarpsPerSm, 48u);
    EXPECT_EQ(cfg.warpSize, 32u);
    EXPECT_EQ(cfg.l1TlbEntries, 32u);
    EXPECT_EQ(cfg.l1TlbLatency, 10u);
    EXPECT_EQ(cfg.l1TlbMshrs, 32u);
    EXPECT_EQ(cfg.l1TlbMergesPerMshr, 192u);
    EXPECT_EQ(cfg.l2TlbEntries, 1024u);
    EXPECT_EQ(cfg.l2TlbWays, 16u);
    EXPECT_EQ(cfg.l2TlbLatency, 80u);
    EXPECT_EQ(cfg.l2TlbMshrs, 128u);
    EXPECT_EQ(cfg.l2TlbMergesPerMshr, 46u);
    EXPECT_EQ(cfg.pageBytes, 64u * 1024u);
    EXPECT_EQ(cfg.numPtws, 32u);
    EXPECT_EQ(cfg.pwcEntries, 32u);
    EXPECT_EQ(cfg.dramChannels, 16u);
    EXPECT_EQ(cfg.mode, TranslationMode::HardwarePtw);
    EXPECT_EQ(cfg.inTlbMshrMax, 0u) << "In-TLB MSHR is off in the baseline";
}

TEST(Config, SoftWalkerConfigEnablesInTlbMshr)
{
    GpuConfig cfg = makeSoftWalkerConfig();
    EXPECT_EQ(cfg.mode, TranslationMode::SoftWalker);
    EXPECT_EQ(cfg.inTlbMshrMax, 1024u);
    EXPECT_EQ(cfg.pwWarpThreads, 32u);
    EXPECT_EQ(cfg.softPwbEntries, 32u);
    cfg.validate();
}

TEST(Config, HybridConfig)
{
    GpuConfig cfg = makeSoftWalkerConfig(TranslationMode::Hybrid);
    EXPECT_EQ(cfg.mode, TranslationMode::Hybrid);
    cfg.validate();
}

TEST(Config, PageTableLevels)
{
    GpuConfig cfg = makeDefaultConfig();
    EXPECT_EQ(cfg.pageTableLevels(), 4u);
    cfg.pageBytes = 2ull * 1024 * 1024;
    EXPECT_EQ(cfg.pageTableLevels(), 3u);
}

TEST(Config, EffectiveCommLatencyDefaultsToL2Latency)
{
    GpuConfig cfg = makeDefaultConfig();
    EXPECT_EQ(cfg.effectiveCommLatency(), cfg.l2TlbLatency);
    cfg.commLatency = 120;
    EXPECT_EQ(cfg.effectiveCommLatency(), 120u);
}

TEST(Config, ScalePtwSubsystem)
{
    GpuConfig cfg = makeDefaultConfig();
    scalePtwSubsystem(cfg, 128);
    EXPECT_EQ(cfg.numPtws, 128u);
    EXPECT_EQ(cfg.pwbEntries, 256u);
    EXPECT_EQ(cfg.l2TlbMshrs, 512u);
}

TEST(Config, ScalePtwOnly)
{
    GpuConfig cfg = makeDefaultConfig();
    scalePtwSubsystem(cfg, 256, /*scale_mshrs=*/false, /*scale_pwb=*/true);
    EXPECT_EQ(cfg.numPtws, 256u);
    EXPECT_EQ(cfg.l2TlbMshrs, 128u);
    EXPECT_EQ(cfg.pwbEntries, 512u);
}

TEST(Config, ValidateAcceptsDefaults)
{
    makeDefaultConfig().validate();
}

TEST(ConfigDeath, RejectsBadPageSize)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.pageBytes = 4096;
    EXPECT_DEATH(cfg.validate(), "page size");
}

TEST(ConfigDeath, RejectsIndivisibleL2Tlb)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.l2TlbEntries = 1000;
    EXPECT_DEATH(cfg.validate(), "divisible");
}

TEST(ConfigDeath, RejectsZeroSms)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.numSms = 0;
    EXPECT_DEATH(cfg.validate(), "non-zero");
}

TEST(ConfigDeath, RejectsZeroSectorSize)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.sectorBytes = 0;
    EXPECT_DEATH(cfg.validate(), "sector sizes must be non-zero");
}

TEST(ConfigDeath, RejectsZeroLineSize)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.lineBytes = 0;
    EXPECT_DEATH(cfg.validate(), "sector sizes must be non-zero");
}

TEST(ConfigDeath, RejectsNonPowerOfTwoLineSize)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.lineBytes = 96;   // a multiple of the 32 B sector, but not 2^n
    EXPECT_DEATH(cfg.validate(), "powers of two");
}

TEST(ConfigDeath, RejectsNonPowerOfTwoSectorSize)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.lineBytes = 192;
    cfg.sectorBytes = 48;
    EXPECT_DEATH(cfg.validate(), "powers of two");
}

TEST(ConfigDeath, RejectsZeroCacheWays)
{
    GpuConfig l1 = makeDefaultConfig();
    l1.l1dWays = 0;
    EXPECT_DEATH(l1.validate(), "way counts must be non-zero");
    GpuConfig l2 = makeDefaultConfig();
    l2.l2dWays = 0;
    EXPECT_DEATH(l2.validate(), "way counts must be non-zero");
}

TEST(ConfigDeath, RejectsZeroTlbWays)
{
    GpuConfig l2 = makeDefaultConfig();
    l2.l2TlbWays = 0;
    EXPECT_DEATH(l2.validate(), "way counts must be non-zero");
    // The fully associative L1 TLB has one way per entry.
    GpuConfig l1 = makeDefaultConfig();
    l1.l1TlbEntries = 0;
    EXPECT_DEATH(l1.validate(), "way counts must be non-zero");
}

TEST(ConfigDeath, RejectsCacheSizeOfPartialSets)
{
    GpuConfig l1 = makeDefaultConfig();
    l1.l1dBytes = 128 * 1024 + 128;   // one line past 128 sets
    EXPECT_DEATH(l1.validate(), "L1D size .* whole sets");
    GpuConfig l2 = makeDefaultConfig();
    l2.l2dBytes = 0;
    EXPECT_DEATH(l2.validate(), "L2D size .* whole sets");
}

TEST(Config, ValidateAcceptsNonPowerOfTwoSetCounts)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.l1dBytes = 96 * 1024;   // 96 sets of 8 ways
    cfg.l2dBytes = 6 * 1024 * 1024;
    cfg.validate();
}

TEST(ConfigDeath, RejectsOversizedInTlbMshr)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.inTlbMshrMax = cfg.l2TlbEntries + 1;
    EXPECT_DEATH(cfg.validate(), "In-TLB");
}

TEST(ConfigDeath, SoftWalkerConfigRejectsHardwareMode)
{
    EXPECT_DEATH(makeSoftWalkerConfig(TranslationMode::HardwarePtw),
                 "SoftWalker or Hybrid");
}

TEST(Config, ModeNames)
{
    EXPECT_STREQ(toString(TranslationMode::HardwarePtw), "hw-ptw");
    EXPECT_STREQ(toString(TranslationMode::SoftWalker), "softwalker");
    EXPECT_STREQ(toString(TranslationMode::Hybrid), "hybrid");
    EXPECT_STREQ(toString(TranslationMode::Ideal), "ideal");
    EXPECT_STREQ(toString(PageTableKind::Radix4), "radix4");
    EXPECT_STREQ(toString(PageTableKind::Hashed), "hashed");
    EXPECT_STREQ(toString(DistributorPolicy::RoundRobin), "round-robin");
    EXPECT_STREQ(toString(DistributorPolicy::Random), "random");
    EXPECT_STREQ(toString(DistributorPolicy::StallAware), "stall-aware");
}
