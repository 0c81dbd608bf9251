/**
 * @file
 * Simulation Auditor: the correctness harness for the whole translation
 * path.
 *
 * Two layers:
 *
 *  1. A zero-cost-when-disabled macro layer.  SW_AUDIT() is a hot-path
 *     invariant check that compiles to nothing unless the build enables
 *     -DSOFTWALKER_AUDIT (the `audit` CMake preset).  SW_ASSERT (see
 *     sim/logging.hh) stays active in every build; use SW_AUDIT for checks
 *     that are too hot or too paranoid for release runs.
 *
 *  2. A registry of *conservation audits*: named cross-component
 *     bookkeeping checks (MSHR slots allocated == released, walks in
 *     flight match `sum(queues) + sum(walkers)`, event time is monotonic,
 *     stats cross-foot, ...) that run at a configurable cycle interval and
 *     once at end-of-sim.  Components register audits against the Auditor
 *     owned by the Gpu; violations route through the logging failure sink
 *     (panic), or are recorded for inspection when tests flip the policy.
 *
 * The registry itself is always compiled — audits run off the hot path and
 * only when scheduled — so negative tests can exercise every invariant in
 * any build flavour.
 */

#ifndef SW_CHECK_AUDIT_HH
#define SW_CHECK_AUDIT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

#ifndef SOFTWALKER_AUDIT
#define SOFTWALKER_AUDIT 0
#endif

#if SOFTWALKER_AUDIT
/**
 * Hot-path invariant check, active only in audit builds.  In regular
 * builds the condition is not evaluated (it sits in an unevaluated sizeof
 * so operands are still name-checked and never warn as unused).
 */
#define SW_AUDIT(cond, fmt, ...)                                            \
    SW_ASSERT(cond, fmt __VA_OPT__(,) __VA_ARGS__)
#else
#define SW_AUDIT(cond, fmt, ...)                                            \
    do {                                                                    \
        (void)sizeof(!(cond));                                              \
    } while (0)
#endif

namespace sw {

class EventQueue;
class StatGroup;

/** True when the build was configured with -DSOFTWALKER_AUDIT=ON. */
inline constexpr bool kAuditEnabled = SOFTWALKER_AUDIT != 0;

/** When a registered audit may legally run. */
enum class AuditScope
{
    /** Holds between any two events; checked periodically and at the end. */
    Continuous,
    /**
     * Holds only once the machine has drained (no pending events): e.g.
     * "no leaked In-TLB MSHR".  Checked at end-of-sim when quiescent.
     */
    Quiescent,
};

/** One recorded invariant violation. */
struct AuditViolation
{
    std::string audit;   ///< name of the audit that fired
    std::string detail;  ///< what exactly failed
    Cycle cycle = 0;     ///< simulated cycle of the check
};

/**
 * Handed to each audit function; the audit reports problems via fail().
 * An audit that returns without calling fail() passed.
 */
class AuditContext
{
  public:
    /** Report one violation; an audit may report several. */
    void fail(std::string detail) { failures.push_back(std::move(detail)); }

    bool failed() const { return !failures.empty(); }

  private:
    friend class Auditor;
    std::vector<std::string> failures;
};

/** A registered conservation check. */
using AuditFn = std::function<void(AuditContext &)>;

/** Registry + scheduler for conservation audits. */
class Auditor
{
  public:
    /** What to do when an audit reports a violation. */
    enum class FailurePolicy
    {
        Panic,   ///< route through the logging failure sink (default)
        Record,  ///< accumulate into violations() — used by tests
    };

    struct Stats
    {
        std::uint64_t sweeps = 0;      ///< checkNow() invocations
        std::uint64_t auditsRun = 0;   ///< individual audit executions
        std::uint64_t violations = 0;  ///< total failures reported
    };

    Auditor() = default;

    Auditor(const Auditor &) = delete;
    Auditor &operator=(const Auditor &) = delete;

    /** Register a named audit; names must be unique. */
    void registerAudit(std::string name, AuditScope scope, AuditFn fn);

    bool hasAudit(const std::string &name) const;
    std::size_t numAudits() const { return audits.size(); }
    std::vector<std::string> auditNames() const;

    void setPolicy(FailurePolicy policy) { policy_ = policy; }
    FailurePolicy policy() const { return policy_; }

    /**
     * Run every Continuous audit (and, when @p quiescent, the Quiescent
     * ones too) at @p now.  Under FailurePolicy::Panic any violation
     * terminates via the logging failure sink; under Record they are
     * appended to violations().
     */
    void checkNow(Cycle now, bool quiescent = false);

    /**
     * Arm periodic checking via the queue's sweep hook: Continuous audits
     * run between two real events whenever @p interval cycles have elapsed
     * since the previous sweep.  The hook observes without perturbing —
     * it schedules nothing, so the simulated timeline (final cycle, event
     * count) is identical with auditing on and off.  Re-arming on the
     * same queue replaces the previous subscription (the Gpu re-arms
     * every run segment).
     */
    void schedulePeriodic(EventQueue &eq, Cycle interval);

    /**
     * End-of-sim check: Continuous audits always, Quiescent audits only if
     * @p quiescent (the run drained rather than hitting its cycle cap).
     */
    void finalCheck(Cycle now, bool quiescent);

    /** Violations recorded under FailurePolicy::Record. */
    const std::vector<AuditViolation> &violations() const
    {
        return violations_;
    }
    void clearViolations() { violations_.clear(); }

    /** True if a recorded violation came from the named audit. */
    bool fired(const std::string &name) const;

    const Stats &stats() const { return stats_; }

    /** Register the auditor's own counters with the stat registry. */
    void registerStats(StatGroup group);

  private:
    struct Registered
    {
        std::string name;
        AuditScope scope;
        AuditFn fn;
    };

    void runOne(const Registered &audit, Cycle now);

    std::vector<Registered> audits;
    FailurePolicy policy_ = FailurePolicy::Panic;
    std::vector<AuditViolation> violations_;
    /** The queue subscription schedulePeriodic() holds (0: none). */
    std::uint64_t sweepId = 0;
    Stats stats_;
};

} // namespace sw

#endif // SW_CHECK_AUDIT_HH
