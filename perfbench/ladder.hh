/**
 * @file
 * The layer ladder: host cost of the layers that are reachable only from
 * inside the event loop (event queue, translation, hardware walk, memory
 * hierarchy), each timed on standalone public objects driven with the
 * page and sector stream captured from a job.
 */

#ifndef PERFBENCH_LADDER_HH
#define PERFBENCH_LADDER_HH

#include <cstdint>

#include "probes.hh"
#include "sim/config.hh"

namespace perfbench {

/** Host ns per call of each rung, and the events each call executes. */
struct Rungs
{
    double eventNs = 0.0;        ///< bare EventQueue schedule + run
    double translateNs = 0.0;    ///< cold translate(): lookups, walks, PTEs
    double lookupNs = 0.0;       ///< translate() that hits the L1 TLB
    double lookupEvents = 0.0;
    double walkNs = 0.0;         ///< one hardware PTW walk, fixed PT latency
    double walkEvents = 0.0;
    double accessNs = 0.0;       ///< one data sector access through L1D/L2D
    double accessEvents = 0.0;
};

/**
 * Time every rung on @p capture.  @p queue_depth sizes the bare queue
 * rung like the job's own mean pending-event count.  Each rung is rebuilt
 * and replayed several times; the median ns per call is kept.
 */
Rungs runLadder(const sw::GpuConfig &cfg, const Capture &capture,
                std::uint64_t queue_depth);

} // namespace perfbench

#endif // PERFBENCH_LADDER_HH
