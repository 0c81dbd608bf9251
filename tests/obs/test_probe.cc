/** @file Tests for the lifecycle probe's stage -> consumer fan-out. */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/cycle_ledger.hh"
#include "obs/event_log.hh"
#include "obs/probe.hh"
#include "obs/trace.hh"
#include "vm/walk.hh"

using namespace sw;

namespace {

const TranslationKey kKey{0, 0x42};

TEST(ProbeStageName, CoversLifecycle)
{
    EXPECT_STREQ(toString(Stage::L1Miss), "l1_miss");
    EXPECT_STREQ(toString(Stage::WalkCreated), "walk_created");
    EXPECT_STREQ(toString(Stage::WalkDispatch), "walk_dispatch");
    EXPECT_STREQ(toString(Stage::PtRead), "pt_read");
    EXPECT_STREQ(toString(Stage::WalkFill), "walk_fill");
    EXPECT_STREQ(toString(Stage::Wakeup), "wakeup");
    EXPECT_STREQ(toString(Stage::L1Hit), "l1_hit");
    EXPECT_STREQ(toString(Stage::WalkHosted), "walk_hosted");
}

TEST(Probe, SkipsAbsentConsumers)
{
    // Neither the silent probe nor a probe with every consumer detached
    // may touch anything.
    Probe::kSilent.emit(Stage::L1Miss, 1, kKey, 0, 0);
    Probe probe;
    probe.attach(nullptr, nullptr, nullptr);
    probe.emit(Stage::L1Miss, 1, kKey, 0, 0);

    TranslationTracer tracer;
    probe.attach(&tracer, nullptr, nullptr);
    probe.emit(Stage::L1Miss, 1, kKey, 0, 0);
    EXPECT_EQ(tracer.stampsRecorded(), kTracingCompiled ? 1u : 0u);
}

TEST(Probe, TracerTakesOnlyItsOwnStages)
{
    TranslationTracer tracer;
    Probe probe;
    probe.attach(&tracer, nullptr, nullptr);
    for (Stage stage : {Stage::L1Hit, Stage::L2Merge, Stage::FaultReplay,
                        Stage::WalkHosted}) {
        probe.emit(stage, 5, kKey, 1, 0);
    }
    EXPECT_EQ(tracer.stampsRecorded(), 0u);
    probe.emit(Stage::Wakeup, 6, kKey, 0, 0);
    EXPECT_EQ(tracer.stampsRecorded(), kTracingCompiled ? 1u : 0u);
}

TEST(Probe, EventLogTakesFillsAndFaults)
{
    EventLog events;
    Probe probe;
    probe.attach(nullptr, nullptr, &events);
    WalkResult faulted;
    faulted.id = 3;
    faulted.key = kKey;
    faulted.fault = true;
    faulted.software = true;
    WalkResult filled = faulted;
    filled.id = 4;
    filled.fault = false;
    filled.queueDelay = 7;
    filled.accessLatency = 11;
    probe.emit(Stage::L1Miss, 1, kKey, 0, 0);
    probe.emit({.stage = Stage::Fault, .cycle = 20, .key = kKey, .id = 3,
                .result = &faulted});
    probe.emit({.stage = Stage::WalkFill, .cycle = 40, .key = kKey, .id = 4,
                .result = &filled});

    std::ostringstream out;
    events.write(out);
    EXPECT_EQ(out.str(),
              "{\"type\":\"meta\",\"schema\":\"softwalker.events/1\"}\n"
              "{\"type\":\"fault\",\"cycle\":20,\"id\":3,\"asid\":0,"
              "\"vpn\":66,\"sw\":true}\n"
              "{\"type\":\"walk\",\"cycle\":40,\"id\":4,\"asid\":0,"
              "\"vpn\":66,\"sw\":true,\"queue_delay\":7,"
              "\"access_latency\":11}\n");
}

TEST(Probe, LedgerFollowsTheLifecycle)
{
    // One stalled SM walks a key through every ledger-visible stage; the
    // software bit on the dispatch picks PW-warp over hardware execution.
    CycleLedger ledger;
    ledger.attach({0}, 0);
    ledger.smSchedState(0, 0, true, true);
    Probe probe;
    probe.attach(nullptr, &ledger, nullptr);
    WalkResult result;
    result.key = kKey;
    probe.emit(Stage::L1Miss, 0, kKey, 0, 0);
    probe.emit(Stage::MshrAlloc, 10, kKey, 0, 0);
    probe.emit({.stage = Stage::WalkDispatch, .cycle = 20, .key = kKey,
                .id = 1, .where = 0, .software = true});
    probe.emit({.stage = Stage::Fault, .cycle = 30, .key = kKey, .id = 1,
                .result = &result});
    probe.emit({.stage = Stage::FaultReplay, .cycle = 40, .key = kKey,
                .inTlb = true});
    probe.emit(Stage::WalkDispatch, 50, kKey, 2, 0);
    probe.emit({.stage = Stage::WalkFill, .cycle = 60, .key = kKey, .id = 2,
                .result = &result});
    probe.emit(Stage::Wakeup, 60, kKey, 0, 0);
    ledger.syncAll(70);

    EXPECT_EQ(ledger.account(0, LedgerCategory::TransL1Miss), 10u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransWalkDispatch), 10u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransPwExec), 10u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransFault), 10u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransInTlbMshr), 10u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransPtwExec), 10u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::MemWait), 10u);
    EXPECT_EQ(ledger.auditConservation(70), "");
}

TEST(Probe, LedgerCountsHostedWalks)
{
    CycleLedger ledger;
    ledger.attach({0, 1}, 0);
    Probe probe;
    probe.attach(nullptr, &ledger, nullptr);
    probe.emit(Stage::WalkHosted, 5, TranslationKey{1, 0x9}, 4, 0);
    EXPECT_EQ(ledger.hostedWalks(0, 1), 1u);
}

} // namespace
