/**
 * @file
 * EventLog implementation: NDJSON record construction and flush.
 */

#include "obs/event_log.hh"

#include <ostream>
#include <sstream>

#include "vm/walk.hh"

namespace sw {

EventLog::EventLog()
{
    std::ostringstream meta;
    meta << "{\"type\":\"meta\",\"schema\":\"" << kEventLogSchema << "\"}";
    lines_.push_back(meta.str());
}

void
EventLog::walk(Cycle now, const WalkResult &result)
{
    std::ostringstream line;
    line << "{\"type\":\"" << (result.fault ? "fault" : "walk")
         << "\",\"cycle\":" << now << ",\"id\":" << result.id
         << ",\"asid\":" << result.key.asid << ",\"vpn\":" << result.key.vpn
         << ",\"sw\":" << (result.software ? "true" : "false");
    if (!result.fault) {
        line << ",\"queue_delay\":" << result.queueDelay
             << ",\"access_latency\":" << result.accessLatency;
    }
    line << "}";
    lines_.push_back(line.str());
}

void
EventLog::sample(Cycle now,
                 const std::array<Cycle, kNumLedgerCategories> &deltas)
{
    std::ostringstream line;
    line << "{\"type\":\"sample\",\"cycle\":" << now << ",\"ledger\":{";
    for (std::size_t cat = 0; cat < kNumLedgerCategories; ++cat) {
        line << (cat ? "," : "") << "\""
             << categoryName(static_cast<LedgerCategory>(cat))
             << "\":" << deltas[cat];
    }
    line << "}}";
    lines_.push_back(line.str());
}

void
EventLog::resetMark(Cycle now)
{
    std::ostringstream line;
    line << "{\"type\":\"reset\",\"cycle\":" << now << "}";
    lines_.push_back(line.str());
}

void
EventLog::write(std::ostream &out) const
{
    for (const std::string &line : lines_)
        out << line << "\n";
}

} // namespace sw
