/**
 * @file
 * Full-run goldens for events scheduled far ahead of the clock.
 *
 * Every suite configuration schedules events well under the event queue's
 * near-future window, so the end-to-end fingerprint suites never exercise
 * the queue's far-future path.  These runs stretch DRAM, page-table and
 * SM<->L2 TLB latencies to thousands of cycles so that real simulator
 * events land beyond the window and must be carried across clock advances.
 *
 * The fingerprints under overflow_goldens/ were recorded from the original
 * binary-heap queue, whose (cycle, insertion-seq) order is the reference
 * the current queue must reproduce bit for bit.  On a mismatch the test
 * prints the new fingerprint; a deliberate model change re-records the
 * file from that output.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "test_util.hh"
#include "workload/generators.hh"

using namespace sw;

namespace {

std::string
readGolden(const std::string &name)
{
    std::ifstream in(std::string(SW_SOURCE_DIR) +
                     "/tests/integration/overflow_goldens/" + name);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Latencies far beyond the queue window on the memory and walk paths. */
GpuConfig
farFuture(GpuConfig cfg)
{
    cfg.dramLatency = 9000;
    cfg.fixedPtAccessLatency = 6000;
    cfg.commLatency = 5000;
    return cfg;
}

std::string
fingerprintOf(const GpuConfig &cfg)
{
    GraphWorkload::Params params;
    params.pagesPerInstr = 0.5;
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 4000;
    limits.warmupInstrs = 1000;
    RunSpec spec;
    spec.cfg = cfg;
    spec.workload = std::make_unique<GraphWorkload>("far", 256ull << 20,
                                                    true, 10, params);
    spec.limits = limits;
    return fingerprint(run(std::move(spec)));
}

} // namespace

TEST(OverflowGoldens, HardwarePtwRunMatchesHeapRecording)
{
    std::string golden = readGolden("small_hw.fp");
    ASSERT_FALSE(golden.empty()) << "missing golden small_hw.fp";
    std::string actual = fingerprintOf(farFuture(test::smallConfig()));
    EXPECT_EQ(golden, actual) << "new fingerprint:\n" << actual;
}

TEST(OverflowGoldens, SoftWalkerRunMatchesHeapRecording)
{
    std::string golden = readGolden("small_sw.fp");
    ASSERT_FALSE(golden.empty()) << "missing golden small_sw.fp";
    std::string actual =
        fingerprintOf(farFuture(test::smallSoftWalkerConfig()));
    EXPECT_EQ(golden, actual) << "new fingerprint:\n" << actual;
}
