/**
 * @file
 * EventLog: schema-versioned NDJSON structured event log.
 *
 * One JSON object per line: a leading `meta` record carrying the schema
 * tag (`softwalker.events/1`), then one record per completed walk, per
 * page fault, and per time-series sample (with per-category ledger
 * deltas).  Records are buffered in memory and flushed by the caller
 * after the run — the log is a pure observer fed from existing hook
 * sites and never schedules events, so enabling it cannot perturb the
 * simulation (pinned by the zero-perturbation fingerprint suite).
 *
 * The NDJSON shape exists so CI and external dashboards can trend runs
 * with line-oriented tools (jq, swbench-compare's NDJSON flattener)
 * without parsing the bespoke metrics JSON.
 */

#ifndef SW_OBS_EVENT_LOG_HH
#define SW_OBS_EVENT_LOG_HH

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/cycle_ledger.hh"
#include "sim/types.hh"

namespace sw {

struct WalkResult;

/** Schema tag written in the leading meta record and checked by CI. */
inline constexpr const char *kEventLogSchema = "softwalker.events/1";

/** In-memory NDJSON event log (see file comment for the record shapes). */
class EventLog
{
  public:
    EventLog();

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    /**
     * A walk finished.  Delivered translations carry the paper's latency
     * split:
     * {"type":"walk","cycle":..,"id":..,"asid":..,"vpn":..,"sw":..,
     *  "queue_delay":..,"access_latency":..}
     * and a walk that hit a page fault and entered the fault buffer is
     * {"type":"fault","cycle":..,"id":..,"asid":..,"vpn":..,"sw":..}.
     * `sw` is true when a PW-warp (software) walked, false for the
     * hardware PTW path.
     */
    void walk(Cycle now, const WalkResult &result);

    /**
     * A time-series sample fired; @p deltas are the per-category ledger
     * cycle totals accrued since the previous sample:
     * {"type":"sample","cycle":..,"ledger":{"idle":..,...}}
     */
    void sample(Cycle now,
                const std::array<Cycle, kNumLedgerCategories> &deltas);

    /**
     * Statistics were zeroed (end of warmup): {"type":"reset","cycle":..}.
     * Earlier records are kept — consumers wanting measured-region data
     * filter to records after the last reset marker.
     */
    void resetMark(Cycle now);

    /** Records written so far, including the meta line. */
    std::size_t size() const { return lines_.size(); }

    /** Write every record, one per line, newline-terminated. */
    void write(std::ostream &out) const;

  private:
    std::vector<std::string> lines_;
};

} // namespace sw

#endif // SW_OBS_EVENT_LOG_HH
