/**
 * @file
 * Probe implementation: the stage -> consumer table.
 */

#include "obs/probe.hh"

#include "obs/cycle_ledger.hh"
#include "obs/event_log.hh"
#include "obs/trace.hh"

namespace sw {

const Probe Probe::kSilent;

const char *
toString(Stage stage)
{
    switch (stage) {
      case Stage::L1Miss:        return "l1_miss";
      case Stage::L2Lookup:      return "l2_lookup";
      case Stage::L2Hit:         return "l2_hit";
      case Stage::L2Miss:        return "l2_miss";
      case Stage::MshrAlloc:     return "mshr_alloc";
      case Stage::InTlbAlloc:    return "intlb_alloc";
      case Stage::MshrFail:      return "mshr_fail";
      case Stage::WalkCreated:   return "walk_created";
      case Stage::BackendSubmit: return "backend_submit";
      case Stage::WalkDispatch:  return "walk_dispatch";
      case Stage::PtRead:        return "pt_read";
      case Stage::WalkFill:      return "walk_fill";
      case Stage::Fault:         return "fault";
      case Stage::Wakeup:        return "wakeup";
      case Stage::L1Hit:         return "l1_hit";
      case Stage::L2Merge:       return "l2_merge";
      case Stage::FaultReplay:   return "fault_replay";
      case Stage::WalkHosted:    return "walk_hosted";
    }
    return "?";
}

void
Probe::attach(TranslationTracer *tracer_in, CycleLedger *ledger_in,
              EventLog *events_in)
{
    tracer = kTracingCompiled ? tracer_in : nullptr;
    ledger = ledger_in;
    events = events_in;
    live = tracer || ledger || events;
}

namespace {

/** The ledger's view: which SMs a transition moves to which stage. */
void
toLedger(CycleLedger &ledger, const ProbeRecord &r)
{
    using Cat = LedgerCategory;
    SmId sm = r.where;
    switch (r.stage) {
      case Stage::L1Miss:
        return ledger.transEnter(sm, r.key, r.cycle);
      case Stage::L1Hit:
      case Stage::Wakeup:
        return ledger.transLeave(sm, r.key, r.cycle);
      case Stage::MshrFail:
        return ledger.transPark(sm, r.key, r.cycle);
      case Stage::L2Merge:
        return ledger.transJoin(sm, r.key, r.cycle);
      case Stage::MshrAlloc:
        ledger.transTrackNew(r.key, Cat::TransWalkDispatch, r.cycle);
        return ledger.transJoin(sm, r.key, r.cycle);
      case Stage::InTlbAlloc:
        ledger.transTrackNew(r.key, Cat::TransInTlbMshr, r.cycle);
        return ledger.transJoin(sm, r.key, r.cycle);
      case Stage::WalkDispatch:
        return ledger.transTrackStage(
            r.key, r.software ? Cat::TransPwExec : Cat::TransPtwExec,
            r.cycle);
      case Stage::Fault:
        return ledger.transTrackStage(r.key, Cat::TransFault, r.cycle);
      case Stage::FaultReplay:
        return ledger.transTrackStage(
            r.key, r.inTlb ? Cat::TransInTlbMshr : Cat::TransWalkDispatch,
            r.cycle);
      case Stage::WalkFill:
        return ledger.transTrackDone(r.key, r.cycle);
      case Stage::WalkHosted:
        return ledger.pwWalkHosted(sm, r.key.asid);
      default:
        return;
    }
}

} // namespace

void
Probe::fanOut(const ProbeRecord &r) const
{
    // The tracer stamps the first fourteen stages; the later four exist
    // for the ledger only.
    if (tracer && r.stage <= Stage::Wakeup)
        tracer->record(r);
    if (ledger)
        toLedger(*ledger, r);
    // Only Fault and WalkFill carry a result: the event log's records.
    if (events && r.result)
        events->walk(r.cycle, *r.result);
}

} // namespace sw
