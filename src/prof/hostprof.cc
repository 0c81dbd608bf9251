#include "prof/hostprof.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "prof/run_manifest.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace sw {
namespace prof {

const char *
toString(Zone zone)
{
    switch (zone) {
      case Zone::Setup: return "setup";
      case Zone::SimLoop: return "sim_loop";
      case Zone::EventDispatch: return "event_dispatch";
      case Zone::SmExec: return "sm_exec";
      case Zone::TlbLookup: return "tlb_lookup";
      case Zone::PtwWalk: return "ptw_walk";
      case Zone::PwWarpExec: return "pw_warp_exec";
      case Zone::CacheDram: return "cache_dram";
      case Zone::StatsAudit: return "stats_audit";
      case Zone::ObsSample: return "obs_sample";
      case Zone::Report: return "report";
      case Zone::CkptSave: return "ckpt_save";
      case Zone::CkptRestore: return "ckpt_restore";
      case Zone::FfwdWarmup: return "ffwd_warmup";
    }
    return "unknown";
}

namespace detail {

/**
 * Per-thread accumulators.  Only the owning thread writes; the profiler
 * merges after workers joined (snapshot() during a live parallel sweep
 * is best-effort).  Records are never freed before process exit so the
 * thread_local pointers stay valid across reset().
 */
struct ThreadRecord
{
    ZoneTotals zones[kNumZones];

    struct Frame
    {
        Zone zone = Zone::Setup;
        std::uint64_t start = 0;
        std::uint64_t child = 0;  ///< nested-zone time to subtract
    };
    static constexpr int kMaxDepth = 64;
    Frame stack[kMaxDepth];
    int depth = 0;
    std::uint64_t drops = 0;

    static constexpr std::size_t kGaugeRing = 2048;
    std::vector<GaugeSample> gauges;
    std::size_t gaugeNext = 0;
    std::uint64_t gaugeCount = 0;
    std::uint64_t maxQueueDepth = 0;
    std::uint64_t maxSlabLive = 0;
    std::uint64_t maxSlabCapacity = 0;

    void
    clear()
    {
        for (ZoneTotals &z : zones)
            z = ZoneTotals{};
        depth = 0;
        drops = 0;
        gauges.clear();
        gaugeNext = 0;
        gaugeCount = 0;
        maxQueueDepth = 0;
        maxSlabLive = 0;
        maxSlabCapacity = 0;
    }
};

namespace {

struct Registry
{
    mutable std::mutex mu;
    std::vector<std::unique_ptr<ThreadRecord>> records;
    std::uint64_t enableNanos = 0;  ///< nowNanos() at setEnabled(true)
};

Registry &
registry()
{
    static Registry reg;
    return reg;
}

} // namespace

std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

ThreadRecord &
threadRecord()
{
    thread_local ThreadRecord *rec = nullptr;
    if (!rec) {
        auto owned = std::make_unique<ThreadRecord>();
        rec = owned.get();
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mu);
        reg.records.push_back(std::move(owned));
    }
    return *rec;
}

bool
zoneEnter(ThreadRecord &rec, Zone zone, std::uint64_t start_nanos)
{
    if (rec.depth >= ThreadRecord::kMaxDepth) {
        ++rec.drops;
        return false;
    }
    ThreadRecord::Frame &frame = rec.stack[rec.depth++];
    frame.zone = zone;
    frame.start = start_nanos;
    frame.child = 0;
    return true;
}

void
zoneExit(ThreadRecord &rec, std::uint64_t end_nanos)
{
    ThreadRecord::Frame &frame = rec.stack[--rec.depth];
    std::uint64_t elapsed =
        end_nanos > frame.start ? end_nanos - frame.start : 0;
    ZoneTotals &totals = rec.zones[static_cast<std::size_t>(frame.zone)];
    totals.totalNanos += elapsed;
    totals.selfNanos += elapsed > frame.child ? elapsed - frame.child : 0;
    ++totals.hits;
    if (rec.depth > 0)
        rec.stack[rec.depth - 1].child += elapsed;
}

} // namespace detail

namespace {
std::atomic<std::uint64_t> ckptBytesCounter{0};
} // namespace

void
addCheckpointBytes(std::uint64_t bytes)
{
    ckptBytesCounter.fetch_add(bytes, std::memory_order_relaxed);
}

std::uint64_t
checkpointBytes()
{
    return ckptBytesCounter.load(std::memory_order_relaxed);
}

HostProfiler &
HostProfiler::instance()
{
    static HostProfiler profiler;
    return profiler;
}

void
HostProfiler::setEnabled(bool on)
{
    if (on && !enabled())
        detail::registry().enableNanos = detail::nowNanos();
    enabledFlag.store(on, std::memory_order_relaxed);
}

void
HostProfiler::reset()
{
    detail::Registry &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (auto &rec : reg.records)
        rec->clear();
    reg.enableNanos = enabled() ? detail::nowNanos() : 0;
}

void
HostProfiler::gaugeSample(std::uint64_t sim_cycle, std::size_t queue_depth,
                          std::size_t slab_live, std::size_t slab_capacity)
{
    detail::ThreadRecord &rec = detail::threadRecord();
    GaugeSample sample;
    std::uint64_t origin = detail::registry().enableNanos;
    std::uint64_t now = detail::nowNanos();
    sample.wallNanos = now > origin ? now - origin : 0;
    sample.simCycle = sim_cycle;
    sample.queueDepth = queue_depth;
    sample.slabLive = slab_live;
    sample.slabCapacity = slab_capacity;
    if (rec.gauges.size() < detail::ThreadRecord::kGaugeRing) {
        rec.gauges.push_back(sample);
    } else {
        rec.gauges[rec.gaugeNext] = sample;
        rec.gaugeNext = (rec.gaugeNext + 1) % detail::ThreadRecord::kGaugeRing;
    }
    ++rec.gaugeCount;
    rec.maxQueueDepth = std::max<std::uint64_t>(rec.maxQueueDepth,
                                                queue_depth);
    rec.maxSlabLive = std::max<std::uint64_t>(rec.maxSlabLive, slab_live);
    rec.maxSlabCapacity = std::max<std::uint64_t>(rec.maxSlabCapacity,
                                                  slab_capacity);
}

namespace {

std::uint64_t
peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
        return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
        return static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
    }
#endif
    return 0;
}

} // namespace

ProfileSnapshot
HostProfiler::snapshot() const
{
    ProfileSnapshot snap;
    const detail::Registry &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto &rec : reg.records) {
        ++snap.threads;
        for (std::size_t z = 0; z < kNumZones; ++z) {
            snap.zones[z].selfNanos += rec->zones[z].selfNanos;
            snap.zones[z].totalNanos += rec->zones[z].totalNanos;
            snap.zones[z].hits += rec->zones[z].hits;
        }
        snap.zoneDrops += rec->drops;
        snap.gaugeCount += rec->gaugeCount;
        snap.maxQueueDepth = std::max(snap.maxQueueDepth,
                                      rec->maxQueueDepth);
        snap.maxSlabLive = std::max(snap.maxSlabLive, rec->maxSlabLive);
        snap.maxSlabCapacity = std::max(snap.maxSlabCapacity,
                                        rec->maxSlabCapacity);
    }
    for (std::size_t z = 0; z < kNumZones; ++z)
        snap.attributedNanos += snap.zones[z].selfNanos;
    if (reg.enableNanos) {
        std::uint64_t now = detail::nowNanos();
        snap.wallNanos = now > reg.enableNanos ? now - reg.enableNanos : 0;
    }
    snap.peakRssKb = peakRssKb();
    const ZoneTotals &loop =
        snap.zones[static_cast<std::size_t>(Zone::SimLoop)];
    const ZoneTotals &dispatch =
        snap.zones[static_cast<std::size_t>(Zone::EventDispatch)];
    if (loop.totalNanos > 0) {
        snap.eventsPerSec =
            double(dispatch.hits) * 1e9 / double(loop.totalNanos);
    }
    return snap;
}

void
HostProfiler::gaugeSamples(GaugeSample *out, std::size_t max,
                           std::size_t &count) const
{
    count = 0;
    const detail::Registry &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto &rec : reg.records) {
        for (const GaugeSample &sample : rec->gauges) {
            if (count >= max)
                break;
            out[count++] = sample;
        }
    }
    std::sort(out, out + count,
              [](const GaugeSample &a, const GaugeSample &b) {
                  if (a.wallNanos != b.wallNanos)
                      return a.wallNanos < b.wallNanos;
                  return a.simCycle < b.simCycle;
              });
}

void
HostProfiler::writeJson(std::ostream &out,
                        const RunManifest *manifest) const
{
    ProfileSnapshot snap = snapshot();
    char buf[256];

    out << "{\n  \"schema\": \"softwalker.hostprof/1\",\n";
    out << "  \"compiled\": " << (kHostProfCompiled ? "true" : "false")
        << ",\n";
    out << "  \"enabled\": " << (enabled() ? "true" : "false") << ",\n";
    if (manifest) {
        out << "  \"manifest\": ";
        manifest->writeJson(out, 2);
        out << ",\n";
    }
    std::snprintf(buf, sizeof(buf),
                  "  \"wall_ns\": %llu,\n  \"attributed_ns\": %llu,\n"
                  "  \"coverage\": %.4f,\n  \"threads\": %u,\n"
                  "  \"zone_drops\": %llu,\n",
                  static_cast<unsigned long long>(snap.wallNanos),
                  static_cast<unsigned long long>(snap.attributedNanos),
                  snap.coverage(), snap.threads,
                  static_cast<unsigned long long>(snap.zoneDrops));
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"events_per_sec\": %.1f,\n  \"peak_rss_kb\": %llu,\n",
                  snap.eventsPerSec,
                  static_cast<unsigned long long>(snap.peakRssKb));
    out << buf;

    out << "  \"gauges\": {\n";
    std::snprintf(buf, sizeof(buf),
                  "    \"queue_depth_max\": %llu,\n"
                  "    \"slab_live_max\": %llu,\n"
                  "    \"slab_capacity_max\": %llu,\n"
                  "    \"checkpoint_bytes\": %llu,\n"
                  "    \"samples_recorded\": %llu,\n",
                  static_cast<unsigned long long>(snap.maxQueueDepth),
                  static_cast<unsigned long long>(snap.maxSlabLive),
                  static_cast<unsigned long long>(snap.maxSlabCapacity),
                  static_cast<unsigned long long>(checkpointBytes()),
                  static_cast<unsigned long long>(snap.gaugeCount));
    out << buf;
    out << "    \"samples\": [";
    static constexpr std::size_t kMaxSamples = 4096;
    std::vector<GaugeSample> samples(kMaxSamples);
    std::size_t n = 0;
    gaugeSamples(samples.data(), kMaxSamples, n);
    for (std::size_t i = 0; i < n; ++i) {
        std::snprintf(
            buf, sizeof(buf),
            "%s\n      {\"wall_ns\": %llu, \"cycle\": %llu, "
            "\"queue_depth\": %llu, \"slab_live\": %llu, "
            "\"slab_capacity\": %llu}",
            i ? "," : "",
            static_cast<unsigned long long>(samples[i].wallNanos),
            static_cast<unsigned long long>(samples[i].simCycle),
            static_cast<unsigned long long>(samples[i].queueDepth),
            static_cast<unsigned long long>(samples[i].slabLive),
            static_cast<unsigned long long>(samples[i].slabCapacity));
        out << buf;
    }
    out << (n ? "\n    ]\n" : "]\n");
    out << "  },\n";

    out << "  \"zones\": [\n";
    for (std::size_t z = 0; z < kNumZones; ++z) {
        std::snprintf(
            buf, sizeof(buf),
            "    {\"zone\": \"%s\", \"self_ns\": %llu, "
            "\"total_ns\": %llu, \"hits\": %llu}%s\n",
            toString(static_cast<Zone>(z)),
            static_cast<unsigned long long>(snap.zones[z].selfNanos),
            static_cast<unsigned long long>(snap.zones[z].totalNanos),
            static_cast<unsigned long long>(snap.zones[z].hits),
            z + 1 < kNumZones ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
}

void
HostProfiler::appendTraceEvents(std::ostream &out, bool &need_comma) const
{
    // Compiled in but never armed: the trace gets no host records at all,
    // so it reads exactly as in a build without the profiler.
    if (!kHostProfCompiled || !enabled())
        return;
    ProfileSnapshot snap = snapshot();
    char buf[256];
    auto sep = [&]() {
        if (need_comma)
            out << ",\n";
        need_comma = true;
    };

    // Host process metadata: zone spans live on their own pid so viewers
    // show a separate "host" track group next to the simulated timeline.
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\"host wall-clock (us)\"}}";

    // One aggregate "X" span per zone, laid end-to-end by self time: the
    // track reads as a wall-clock attribution bar chart.
    std::uint64_t cursor = 0;
    for (std::size_t z = 0; z < kNumZones; ++z) {
        const ZoneTotals &totals = snap.zones[z];
        if (totals.hits == 0)
            continue;
        sep();
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\":\"%s\",\"cat\":\"hostprof\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":0,"
            "\"args\":{\"hits\":%llu,\"total_us\":%.3f}}",
            toString(static_cast<Zone>(z)), double(cursor) / 1e3,
            double(totals.selfNanos) / 1e3,
            static_cast<unsigned long long>(totals.hits),
            double(totals.totalNanos) / 1e3);
        out << buf;
        cursor += totals.selfNanos;
    }

    // Gauge counter tracks on the *simulated* timeline (pid 0): queue
    // depth and slab occupancy line up with the walk spans.
    static constexpr std::size_t kMaxSamples = 4096;
    std::vector<GaugeSample> samples(kMaxSamples);
    std::size_t n = 0;
    gaugeSamples(samples.data(), kMaxSamples, n);
    for (std::size_t i = 0; i < n; ++i) {
        sep();
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\":\"host.event_queue\",\"ph\":\"C\",\"ts\":%llu,"
            "\"pid\":0,\"tid\":0,\"args\":{\"queue_depth\":%llu,"
            "\"slab_live\":%llu}}",
            static_cast<unsigned long long>(samples[i].simCycle),
            static_cast<unsigned long long>(samples[i].queueDepth),
            static_cast<unsigned long long>(samples[i].slabLive));
        out << buf;
    }
}

} // namespace prof
} // namespace sw
