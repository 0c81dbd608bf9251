/**
 * @file
 * Golden pins for everything the translation-lifecycle observers write.
 *
 * Each run installs the lifecycle tracer, the cycle ledger, the event log
 * and a sampler, then hashes what they recorded: the tracer's raw stamps,
 * its reconstructed walk spans, its four phase stats and its Perfetto
 * JSON; the ledger's JSON dump; and the NDJSON event log.  The constants
 * pin the observer streams across refactors of the hook plumbing: a
 * reordered, dropped or duplicated stage transition changes a hash.
 *
 * The tracer's queue/walk phase stats must also equal the engine's
 * walkQueueDelay / walkAccessLatency exactly: both describe the same
 * completed walks.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/softwalker.hh"
#include "harness/corun.hh"
#include "obs/observability.hh"
#include "test_util.hh"
#include "workload/generators.hh"

using namespace sw;

namespace {

/** What one run's observers recorded, reduced to FNV-1a hashes. */
struct Pinned
{
    std::uint64_t stamps = 0;
    std::uint64_t spans = 0;
    std::uint64_t phases = 0;
    std::uint64_t traceJson = 0;
    std::uint64_t ledger = 0;
    std::uint64_t events = 0;
};

std::uint64_t
hashString(const std::string &text)
{
    return test::fnvBytes(std::vector<std::uint8_t>(text.begin(), text.end()));
}

std::uint64_t
hashStat(std::uint64_t h, const LatencyStat &stat)
{
    h = test::fnvMix(h, stat.count);
    h = test::fnvMix(h, stat.sum);
    h = test::fnvMix(h, stat.minv);
    return test::fnvMix(h, stat.maxv);
}

/** The full observer bundle for one run (the sampler feeds the log). */
struct Observers
{
    TranslationTracer tracer;
    CycleLedger ledger;
    EventLog events;
    TimeSeriesSampler sampler;
    Observability obs;

    Observers()
    {
        obs.tracer = &tracer;
        obs.ledger = &ledger;
        obs.events = &events;
        obs.sampler = &sampler;
        obs.sampleInterval = 500;
    }

    Pinned
    pin() const
    {
        Pinned out;
        std::uint64_t h = test::kFnvBasis;
        for (const TranslationTracer::Stamp &s : tracer.stamps()) {
            h = test::fnvMix(h, s.cycle);
            h = test::fnvMix(h, s.id);
            h = test::fnvMix(h, s.vpn);
            h = test::fnvMix(h, s.where);
            h = test::fnvMix(h, std::uint64_t(s.phase));
            h = test::fnvMix(h, s.asid);
        }
        out.stamps = test::fnvMix(h, tracer.stampsRecorded());

        h = test::kFnvBasis;
        for (const TranslationTracer::WalkSpan &s : tracer.spans()) {
            h = test::fnvMix(h, s.id);
            h = test::fnvMix(h, s.vpn);
            h = test::fnvMix(h, s.asid);
            h = test::fnvMix(h, s.created);
            h = test::fnvMix(h, s.dispatched);
            h = test::fnvMix(h, s.filled);
            h = test::fnvMix(h, s.ptReads);
            h = test::fnvMix(h, s.where);
        }
        out.spans = test::fnvMix(h, tracer.spansCompleted());

        h = hashStat(test::kFnvBasis, tracer.queuePhase());
        h = hashStat(h, tracer.walkPhase());
        h = hashStat(h, tracer.totalPhase());
        out.phases = hashStat(h, tracer.ptReadsPerWalk());

        std::ostringstream json;
        tracer.writeTraceJson(json);
        out.traceJson = hashString(json.str());

        out.ledger = hashString(ledger.dumpJson());

        std::ostringstream ndjson;
        events.write(ndjson);
        out.events = hashString(ndjson.str());
        return out;
    }
};

void
expectPinned(const Pinned &got, const Pinned &want)
{
    if (kTracingCompiled) {
        EXPECT_EQ(got.stamps, want.stamps) << "tracer stamps";
        EXPECT_EQ(got.spans, want.spans) << "tracer spans";
        EXPECT_EQ(got.phases, want.phases) << "tracer phase stats";
        EXPECT_EQ(got.traceJson, want.traceJson) << "Perfetto JSON bytes";
    }
    EXPECT_EQ(got.ledger, want.ledger) << "ledger JSON dump";
    EXPECT_EQ(got.events, want.events) << "event log bytes";
}

enum class Shape
{
    Graph,      ///< irregular frontier walk: misses, merges, parks
    Streaming,  ///< same-sector neighbours: NHA coalescing merges
    Faulting,   ///< random pages with map-on-demand off: fault replays
};

std::unique_ptr<Workload>
makeWorkload(Shape shape)
{
    switch (shape) {
      case Shape::Graph: {
        GraphWorkload::Params params;
        params.pagesPerInstr = 0.5;
        return std::make_unique<GraphWorkload>("pin", 256ull << 20, true,
                                               10, params);
      }
      case Shape::Streaming: {
        StreamingWorkload::Params params;
        params.strideBytes = 16 * 1024;
        return std::make_unique<StreamingWorkload>("pin-nha", 1ull << 30,
                                                   true, 5, params);
      }
      case Shape::Faulting:
        return std::make_unique<RandomAccessWorkload>("pin-fault",
                                                      64ull << 20, 5, 1.0);
    }
    return nullptr;
}

/** Run one machine with every observer installed and pin its output. */
Pinned
runPinned(const GpuConfig &cfg, Shape shape)
{
    Observers observers;
    Gpu gpu(cfg, makeWorkload(shape));
    installWalkBackend(gpu);
    gpu.installObservability(observers.obs);
    if (shape == Shape::Faulting)
        gpu.engine().setMapOnDemand(false);

    Gpu::RunLimits limits;
    limits.warpInstrQuota = shape == Shape::Faulting ? 150 : 500;
    limits.warmupInstrs = shape == Shape::Faulting ? 0 : 100;
    limits.maxCycles = 20000000;
    gpu.run(limits);
    observers.sampler.uninstall();

    const TranslationEngine::Stats &stats = gpu.engine().stats();
    EXPECT_GT(stats.walksCompleted, 0u);
    if (shape == Shape::Faulting) {
        EXPECT_GT(stats.faults, 0u);
    }
    if (kTracingCompiled) {
        // One source of truth: the tracer's phase split is the engine's.
        const TranslationTracer &tracer = observers.tracer;
        EXPECT_EQ(tracer.queuePhase().count, stats.walkQueueDelay.count);
        EXPECT_EQ(tracer.queuePhase().sum, stats.walkQueueDelay.sum);
        EXPECT_EQ(tracer.queuePhase().minv, stats.walkQueueDelay.minv);
        EXPECT_EQ(tracer.queuePhase().maxv, stats.walkQueueDelay.maxv);
        EXPECT_EQ(tracer.walkPhase().count, stats.walkAccessLatency.count);
        EXPECT_EQ(tracer.walkPhase().sum, stats.walkAccessLatency.sum);
        EXPECT_EQ(tracer.walkPhase().minv, stats.walkAccessLatency.minv);
        EXPECT_EQ(tracer.walkPhase().maxv, stats.walkAccessLatency.maxv);
    }
    return observers.pin();
}

TEST(ProbePin, HardwarePtw)
{
    expectPinned(runPinned(test::smallConfig(), Shape::Graph),
                 {0x52e25d71af8f344aull, 0xe1e36aff14448a08ull,
                  0xc792fe240f2dab70ull, 0x4c470b7e40b1ef79ull,
                  0x292a7b59876b17a0ull, 0xe75bf20a18cbf15eull});
}

TEST(ProbePin, SoftWalker)
{
    expectPinned(runPinned(test::smallSoftWalkerConfig(), Shape::Graph),
                 {0x678432284506c0f8ull, 0xff85bea451125c85ull,
                  0x6688bc4288ce8c9eull, 0x27e59b2c72235b33ull,
                  0x389ced0c867b4385ull, 0x45767f11ed67ff3eull});
}

TEST(ProbePin, Hybrid)
{
    GpuConfig cfg = test::smallConfig();
    cfg.mode = TranslationMode::Hybrid;
    expectPinned(runPinned(cfg, Shape::Graph),
                 {0xd4f5572fa9017d87ull, 0xa52c08988d54286aull,
                  0xde7173831e9159ecull, 0xe860cff1dfe68eeaull,
                  0x532c72687f30506aull, 0x6665b6967b06e9aeull});
}

TEST(ProbePin, NhaCoalescing)
{
    GpuConfig cfg = test::smallConfig();
    cfg.nhaCoalescing = true;
    expectPinned(runPinned(cfg, Shape::Streaming),
                 {0x2edd3ade4acc0c8dull, 0x7603b2a1239f38b2ull,
                  0xc1015014dd5d414eull, 0x1a9af1ac17613a70ull,
                  0x7ada09eb398aa9adull, 0xc4cca32b2b13a258ull});
}

TEST(ProbePin, HardwarePtwFaults)
{
    expectPinned(runPinned(test::smallConfig(), Shape::Faulting),
                 {0x3b2f578a95b88b19ull, 0xca263b2ff489e896ull,
                  0xdeb08c870e9fd522ull, 0xd99174cae9ad4584ull,
                  0x4df19eb1ad769084ull, 0xb136ced83012ec43ull});
}

TEST(ProbePin, SoftWalkerFaults)
{
    expectPinned(runPinned(test::smallSoftWalkerConfig(), Shape::Faulting),
                 {0xcc94399c66dd7cb4ull, 0xa8e08ad06e695e36ull,
                  0xeec127a0a066d973ull, 0x58ede4e3ad6bc429ull,
                  0xc4faefed436dc5baull, 0xe35ab76400ec33d0ull});
}

TEST(ProbePin, MigCoRun)
{
    Observers observers;
    CoRunSpec spec;
    spec.cfg = test::smallSoftWalkerConfig();
    spec.cfg.migPartitioning = true;
    spec.tenants = {{"bfs", 0.25}, {"gemm", 0.25}};
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 400;
    limits.warmupInstrs = 100;
    spec.limits = limits;
    spec.soloBaselines = false;
    spec.obs = &observers.obs;
    runCoRun(spec);
    observers.sampler.uninstall();
    EXPECT_GT(observers.events.size(), 1u);
    EXPECT_GT(observers.ledger.hostedWalks(0, 0), 0u);
    expectPinned(observers.pin(),
                 {0x47e41f02753fe4e9ull, 0x56cad8c9d0de9b7aull,
                  0x0fbeb1257e7c13a5ull, 0x417aa187bdcdbe1bull,
                  0x0ed08182272bff51ull, 0x9538c3ed02819bc9ull});
}

} // namespace
