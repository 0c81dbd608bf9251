#include "check/audit.hh"

#include <algorithm>

#include "obs/stat_registry.hh"
#include "prof/hostprof.hh"
#include "sim/event_queue.hh"

namespace sw {

void
Auditor::registerAudit(std::string name, AuditScope scope, AuditFn fn)
{
    SW_ASSERT(fn != nullptr, "audit '%s' registered without a function",
              name.c_str());
    SW_ASSERT(!hasAudit(name), "duplicate audit registration '%s'",
              name.c_str());
    audits.push_back({std::move(name), scope, std::move(fn)});
}

bool
Auditor::hasAudit(const std::string &name) const
{
    return std::any_of(audits.begin(), audits.end(),
                       [&](const Registered &a) { return a.name == name; });
}

std::vector<std::string>
Auditor::auditNames() const
{
    std::vector<std::string> names;
    names.reserve(audits.size());
    for (const auto &audit : audits)
        names.push_back(audit.name);
    return names;
}

void
Auditor::runOne(const Registered &audit, Cycle now)
{
    AuditContext ctx;
    audit.fn(ctx);
    ++stats_.auditsRun;
    if (!ctx.failed())
        return;

    stats_.violations += ctx.failures.size();
    if (policy_ == FailurePolicy::Panic) {
        // All terminating paths share the logging failure sink; give the
        // first detail line — it is the one that names the broken
        // bookkeeping.
        panic("audit '%s' failed at cycle %llu: %s%s",
              audit.name.c_str(), static_cast<unsigned long long>(now),
              ctx.failures.front().c_str(),
              ctx.failures.size() > 1 ? " (+ further violations)" : "");
    }
    for (auto &detail : ctx.failures)
        violations_.push_back({audit.name, std::move(detail), now});
}

void
Auditor::checkNow(Cycle now, bool quiescent)
{
    SW_PROF_SCOPE(prof::Zone::StatsAudit);
    ++stats_.sweeps;
    for (const auto &audit : audits) {
        if (audit.scope == AuditScope::Quiescent && !quiescent)
            continue;
        runOne(audit, now);
    }
}

void
Auditor::schedulePeriodic(EventQueue &eq, Cycle interval)
{
    SW_ASSERT(interval > 0, "audit interval must be positive");
    // Piggyback on the queue's sweep hook rather than scheduling events of
    // our own: sweeping must not advance the clock, extend the run past its
    // natural drain point, or change eventsExecuted() — the simulated
    // timeline has to be bit-identical with auditing on and off.
    eq.removePeriodicCheck(sweepId);
    sweepId = eq.addPeriodicCheck(interval,
                                  [this](Cycle now) { checkNow(now); });
}

void
Auditor::finalCheck(Cycle now, bool quiescent)
{
    checkNow(now, quiescent);
}

bool
Auditor::fired(const std::string &name) const
{
    return std::any_of(violations_.begin(), violations_.end(),
                       [&](const AuditViolation &v) {
                           return v.audit == name;
                       });
}

void
Auditor::registerStats(StatGroup group)
{
    group.counter("sweeps", &stats_.sweeps);
    group.counter("audits_run", &stats_.auditsRun);
    group.counter("violations", &stats_.violations);
}

} // namespace sw
