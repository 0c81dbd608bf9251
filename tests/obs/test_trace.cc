/** @file Tests for the translation lifecycle tracer (src/obs). */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/trace.hh"
#include "vm/walk.hh"

using namespace sw;

namespace {

/** A single-tenant record for the tracer's direct-feed tests. */
ProbeRecord
rec(Stage stage, Cycle cycle, std::uint64_t id, Vpn vpn,
    std::uint32_t where = ProbeRecord::kNoWhere,
    const WalkResult *result = nullptr)
{
    return {.stage = stage, .cycle = cycle, .key = TranslationKey{0, vpn},
            .id = id, .where = where, .result = result};
}

/** The outcome a backend would report for a walk with this split. */
WalkResult
split(Cycle queue, Cycle access)
{
    WalkResult result;
    result.queueDelay = queue;
    result.accessLatency = access;
    return result;
}

TEST(Tracer, RecordsStampsInOrder)
{
    TranslationTracer tracer;
    tracer.record(rec(Stage::L1Miss, 10, 0, 0x100, 3));
    tracer.record(rec(Stage::L2Lookup, 12, 0, 0x100));
    EXPECT_EQ(tracer.stampsRecorded(), 2u);
    EXPECT_EQ(tracer.stampsDropped(), 0u);
    auto stamps = tracer.stamps();
    ASSERT_EQ(stamps.size(), 2u);
    EXPECT_EQ(stamps[0].phase, Stage::L1Miss);
    EXPECT_EQ(stamps[0].cycle, 10u);
    EXPECT_EQ(stamps[0].where, 3u);
    EXPECT_EQ(stamps[1].phase, Stage::L2Lookup);
    EXPECT_EQ(stamps[1].where, ProbeRecord::kNoWhere);
}

TEST(Tracer, RingOverwritesOldest)
{
    TranslationTracer tracer(4);
    for (Cycle c = 0; c < 6; ++c)
        tracer.record(rec(Stage::L1Miss, c, 0, c));
    EXPECT_EQ(tracer.stampsRecorded(), 6u);
    EXPECT_EQ(tracer.stampsDropped(), 2u);
    auto stamps = tracer.stamps();
    ASSERT_EQ(stamps.size(), 4u);
    // Oldest-first: cycles 2..5 survive.
    EXPECT_EQ(stamps.front().cycle, 2u);
    EXPECT_EQ(stamps.back().cycle, 5u);
}

TEST(Tracer, ReconstructsWalkSpanWithPhaseAttribution)
{
    TranslationTracer tracer;
    tracer.record(rec(Stage::WalkCreated, 100, 7, 0xabc));
    tracer.record(rec(Stage::BackendSubmit, 100, 7, 0xabc));
    tracer.record(rec(Stage::WalkDispatch, 130, 7, 0xabc, 2));
    tracer.record(rec(Stage::PtRead, 140, 7, 0xabc));
    tracer.record(rec(Stage::PtRead, 180, 7, 0xabc));
    WalkResult result = split(30, 100);
    tracer.record(rec(Stage::WalkFill, 230, 7, 0xabc,
                      ProbeRecord::kNoWhere, &result));

    EXPECT_EQ(tracer.spansCompleted(), 1u);
    auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].id, 7u);
    EXPECT_EQ(spans[0].created, 100u);
    EXPECT_EQ(spans[0].dispatched, 130u);
    EXPECT_EQ(spans[0].filled, 230u);
    EXPECT_EQ(spans[0].ptReads, 2u);
    EXPECT_EQ(spans[0].where, 2u);

    EXPECT_DOUBLE_EQ(tracer.queuePhase().mean(), 30.0);
    EXPECT_DOUBLE_EQ(tracer.walkPhase().mean(), 100.0);
    EXPECT_DOUBLE_EQ(tracer.totalPhase().mean(), 130.0);
    EXPECT_DOUBLE_EQ(tracer.ptReadsPerWalk().mean(), 2.0);
}

TEST(Tracer, FirstDispatchWins)
{
    // Batched PW-Warp lanes can re-dispatch riders; the queue phase ends
    // at the first pickup.
    TranslationTracer tracer;
    tracer.record(rec(Stage::WalkCreated, 10, 1, 0x1));
    tracer.record(rec(Stage::WalkDispatch, 20, 1, 0x1, 0));
    tracer.record(rec(Stage::WalkDispatch, 30, 1, 0x1, 1));
    tracer.record(rec(Stage::WalkFill, 40, 1, 0x1));
    ASSERT_EQ(tracer.spans().size(), 1u);
    EXPECT_EQ(tracer.spans()[0].dispatched, 20u);
    EXPECT_EQ(tracer.spans()[0].where, 0u);
}

TEST(Tracer, FillWithoutDispatchAttributesToWalkPhase)
{
    // A span that never saw a dispatch draws its whole life as the walk
    // phase; the phase stats still follow the walk's own WalkResult.
    TranslationTracer tracer;
    tracer.record(rec(Stage::WalkCreated, 50, 9, 0x9));
    WalkResult result = split(0, 40);
    tracer.record(rec(Stage::WalkFill, 90, 9, 0x9, ProbeRecord::kNoWhere,
                      &result));
    EXPECT_DOUBLE_EQ(tracer.queuePhase().mean(), 0.0);
    EXPECT_DOUBLE_EQ(tracer.walkPhase().mean(), 40.0);

    std::ostringstream out;
    tracer.writeTraceJson(out);
    std::string json = out.str();
    EXPECT_NE(json.find("\"name\":\"walk\",\"cat\":\"walk\",\"ph\":\"X\","
                        "\"ts\":50,\"dur\":40"),
              std::string::npos);
}

TEST(Tracer, FaultDropsLiveSpan)
{
    TranslationTracer tracer;
    tracer.record(rec(Stage::WalkCreated, 10, 5, 0x5));
    tracer.record(rec(Stage::Fault, 20, 5, 0x5));
    // The replayed walk arrives under a fresh id; the faulted one must not
    // complete a span.
    tracer.record(rec(Stage::WalkFill, 30, 5, 0x5));
    EXPECT_EQ(tracer.spansCompleted(), 0u);
    EXPECT_EQ(tracer.ptReadsPerWalk().count, 0u);
}

TEST(Tracer, IdZeroStampsSkipReconstruction)
{
    TranslationTracer tracer;
    tracer.record(rec(Stage::WalkCreated, 10, 0, 0x1));
    tracer.record(rec(Stage::WalkFill, 20, 0, 0x1));
    EXPECT_EQ(tracer.spansCompleted(), 0u);
    EXPECT_EQ(tracer.stampsRecorded(), 2u);
}

TEST(Tracer, ResetAttributionKeepsHistory)
{
    TranslationTracer tracer;
    tracer.record(rec(Stage::WalkCreated, 10, 1, 0x1));
    WalkResult result = split(5, 15);
    tracer.record(rec(Stage::WalkFill, 30, 1, 0x1, ProbeRecord::kNoWhere,
                      &result));
    EXPECT_EQ(tracer.totalPhase().count, 1u);
    tracer.resetAttribution();
    EXPECT_EQ(tracer.totalPhase().count, 0u);
    // Raw history survives the warmup reset; only attribution is zeroed.
    EXPECT_EQ(tracer.stamps().size(), 2u);
    EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(Tracer, WriteTraceJsonEmitsEventArray)
{
    TranslationTracer tracer;
    tracer.record(rec(Stage::WalkCreated, 100, 7, 0xabc));
    tracer.record(rec(Stage::WalkDispatch, 130, 7, 0xabc, 2));
    tracer.record(rec(Stage::WalkFill, 230, 7, 0xabc));

    std::ostringstream out;
    tracer.writeTraceJson(out);
    std::string json = out.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.size() - 2], ']');  // trailing newline after ]
    // One "X" span pair per completed walk plus "i" instants per stamp.
    EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"walk\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"walk_dispatch\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
}

} // namespace
