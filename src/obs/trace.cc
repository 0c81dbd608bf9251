#include "obs/trace.hh"

#include <ostream>

#include "prof/hostprof.hh"
#include "sim/logging.hh"
#include "vm/walk.hh"

namespace sw {

TranslationTracer::TranslationTracer(std::size_t capacity)
    : capacity_(capacity)
{
    SW_ASSERT(capacity_ > 0, "tracer needs a non-zero ring capacity");
    ring.reserve(capacity_);
    spanRing.reserve(capacity_);
}

void
TranslationTracer::record(const ProbeRecord &r)
{
    ++stampsRecorded_;
    Stamp stamp{r.cycle, r.id, r.key.vpn, r.where, r.stage, r.key.asid};
    if (ring.size() < capacity_) {
        ring.push_back(stamp);
    } else {
        ring[ringNext] = stamp;
        ringNext = (ringNext + 1) % capacity_;
        ++stampsDropped_;
    }

    if (r.stage == Stage::WalkFill && r.result) {
        queuePhase_.add(r.result->queueDelay);
        walkPhase_.add(r.result->accessLatency);
        totalPhase_.add(r.result->queueDelay + r.result->accessLatency);
    }

    // Span reconstruction: only stages keyed by a walk id take part.
    if (r.id == 0)
        return;
    switch (r.stage) {
      case Stage::WalkCreated: {
        WalkSpan span;
        span.id = r.id;
        span.vpn = r.key.vpn;
        span.asid = r.key.asid;
        span.created = r.cycle;
        live[r.id] = span;
        break;
      }
      case Stage::WalkDispatch: {
        auto it = live.find(r.id);
        if (it != live.end() && it->second.dispatched == 0) {
            it->second.dispatched = r.cycle;
            it->second.where = r.where;
        }
        break;
      }
      case Stage::PtRead: {
        auto it = live.find(r.id);
        if (it != live.end())
            ++it->second.ptReads;
        break;
      }
      case Stage::WalkFill: {
        auto it = live.find(r.id);
        if (it == live.end())
            break;
        WalkSpan span = it->second;
        live.erase(it);
        span.filled = r.cycle;
        ptReadsPerWalk_.add(span.ptReads);
        ++spansCompleted_;
        if (spanRing.size() < capacity_) {
            spanRing.push_back(span);
        } else {
            spanRing[spanNext] = span;
            spanNext = (spanNext + 1) % capacity_;
            ++spansDropped_;
        }
        break;
      }
      case Stage::Fault:
        // The replay arrives as a fresh WalkCreated with a new id; drop
        // the faulted span so the live map doesn't accumulate them.
        live.erase(r.id);
        break;
      default:
        break;
    }
}

void
TranslationTracer::resetAttribution()
{
    queuePhase_.reset();
    walkPhase_.reset();
    totalPhase_.reset();
    ptReadsPerWalk_.reset();
}

std::vector<TranslationTracer::Stamp>
TranslationTracer::stamps() const
{
    std::vector<Stamp> out;
    out.reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i)
        out.push_back(ring[(ringNext + i) % ring.size()]);
    return out;
}

std::vector<TranslationTracer::WalkSpan>
TranslationTracer::spans() const
{
    std::vector<WalkSpan> out;
    out.reserve(spanRing.size());
    for (std::size_t i = 0; i < spanRing.size(); ++i)
        out.push_back(spanRing[(spanNext + i) % spanRing.size()]);
    return out;
}

void
TranslationTracer::writeTraceJson(std::ostream &out) const
{
    // Chrome trace_event "JSON array format": Perfetto and chrome://tracing
    // both load a bare array of event objects.  ts/dur are simulated
    // cycles (the viewers treat them as microseconds; only ratios matter).
    out << "[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out << ",\n";
        first = false;
    };

    for (const WalkSpan &span : spans()) {
        unsigned long long tid = span.where == ProbeRecord::kNoWhere
            ? 0ull
            : static_cast<unsigned long long>(span.where);
        // A span never dispatched draws its whole life as the walk phase.
        Cycle dispatch = span.dispatched ? span.dispatched : span.created;
        sep();
        out << strprintf(
            "{\"name\":\"queue\",\"cat\":\"walk\",\"ph\":\"X\","
            "\"ts\":%llu,\"dur\":%llu,\"pid\":0,\"tid\":%llu,"
            "\"args\":{\"id\":%llu,\"vpn\":%llu,\"asid\":%u}}",
            static_cast<unsigned long long>(span.created),
            static_cast<unsigned long long>(dispatch - span.created),
            tid, static_cast<unsigned long long>(span.id),
            static_cast<unsigned long long>(span.vpn), span.asid);
        sep();
        out << strprintf(
            "{\"name\":\"walk\",\"cat\":\"walk\",\"ph\":\"X\","
            "\"ts\":%llu,\"dur\":%llu,\"pid\":0,\"tid\":%llu,"
            "\"args\":{\"id\":%llu,\"vpn\":%llu,\"asid\":%u,"
            "\"pt_reads\":%u}}",
            static_cast<unsigned long long>(dispatch),
            static_cast<unsigned long long>(span.filled - dispatch),
            tid, static_cast<unsigned long long>(span.id),
            static_cast<unsigned long long>(span.vpn), span.asid,
            span.ptReads);
    }

    for (const Stamp &stamp : stamps()) {
        sep();
        out << strprintf(
            "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"i\",\"s\":\"t\","
            "\"ts\":%llu,\"pid\":0,\"tid\":%llu,"
            "\"args\":{\"id\":%llu,\"vpn\":%llu,\"asid\":%u}}",
            toString(stamp.phase),
            static_cast<unsigned long long>(stamp.cycle),
            stamp.where == ProbeRecord::kNoWhere
                ? 0ull
                : static_cast<unsigned long long>(stamp.where),
            static_cast<unsigned long long>(stamp.id),
            static_cast<unsigned long long>(stamp.vpn), stamp.asid);
    }

    // Host-side view (hostprof builds with the profiler enabled): zone
    // spans on a dedicated host pid and event-queue gauge counters on the
    // simulated timeline.  A no-op in default builds.
    bool need_comma = !first;
    prof::HostProfiler::instance().appendTraceEvents(out, need_comma);

    out << "]\n";
}

} // namespace sw
