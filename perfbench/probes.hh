/**
 * @file
 * Host-side probes the benchmark wraps around the simulator's public
 * interfaces: allocation counters, a forwarding Workload decorator that
 * times next() and captures the page/sector stream, and a forwarding
 * WalkBackend decorator that times submit().  Neither decorator changes
 * what the simulator sees, so a traced job's fingerprint equals its
 * untraced one.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "vm/walk.hh"
#include "workload/workload.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Allocations made so far on the calling thread (alloc_count.cc). */
struct AllocSnapshot
{
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};
AllocSnapshot allocSnapshot();

/**
 * A window of a job's address stream, kept for the ladder: per captured
 * instruction the issuing SM, its distinct pages and its distinct
 * sectors, in first-touch order (flat arrays; *End are prefix ends).
 */
struct Capture
{
    std::vector<sw::SmId> sm;
    std::vector<std::uint32_t> pageEnd;
    std::vector<std::uint32_t> sectorEnd;
    std::vector<sw::Vpn> pages;
    std::vector<sw::VirtAddr> sectors;

    std::size_t instrs() const { return sm.size(); }
};

/** Count + total host time of one kind of child span. */
struct SpanTotal
{
    std::uint64_t calls = 0;
    double seconds = 0.0;
};

/**
 * Forwarding Workload: times every next() and records instructions
 * [captureFrom, captureFrom + captureCount) of the stream.
 */
class TimedWorkload : public sw::Workload
{
  public:
    TimedWorkload(std::unique_ptr<sw::Workload> inner, std::uint64_t page_bytes,
                  std::uint64_t sector_bytes, std::uint64_t capture_from,
                  std::uint64_t capture_count)
        : inner_(std::move(inner)), pageBytes(page_bytes),
          sectorBytes(sector_bytes), captureFrom(capture_from),
          captureTo(capture_from + capture_count)
    {
    }

    sw::WarpInstr
    next(sw::SmId sm, sw::WarpId warp, sw::Rng &rng) override
    {
        Clock::time_point start = Clock::now();
        sw::WarpInstr instr = inner_->next(sm, warp, rng);
        Clock::time_point end = Clock::now();
        span.seconds += secondsBetween(start, end);
        if (span.calls >= captureFrom && span.calls < captureTo)
            record(sm, instr);
        ++span.calls;
        return instr;
    }

    std::uint64_t footprintBytes() const override
    {
        return inner_->footprintBytes();
    }
    std::string name() const override { return inner_->name(); }
    bool irregular() const override { return inner_->irregular(); }
    void saveState(sw::CkptWriter &w) const override { inner_->saveState(w); }
    void restoreState(sw::CkptReader &r) override { inner_->restoreState(r); }

    SpanTotal span;
    Capture capture;

  private:
    void
    record(sw::SmId sm, const sw::WarpInstr &instr)
    {
        std::size_t page_begin = capture.pages.size();
        std::size_t sector_begin = capture.sectors.size();
        for (std::uint32_t lane = 0; lane < instr.activeLanes; ++lane) {
            sw::Vpn vpn = instr.addrs[lane] / pageBytes;
            sw::VirtAddr sector =
                instr.addrs[lane] / sectorBytes * sectorBytes;
            if (!contains(capture.pages, page_begin, vpn))
                capture.pages.push_back(vpn);
            if (!contains(capture.sectors, sector_begin, sector))
                capture.sectors.push_back(sector);
        }
        capture.sm.push_back(sm);
        capture.pageEnd.push_back(std::uint32_t(capture.pages.size()));
        capture.sectorEnd.push_back(std::uint32_t(capture.sectors.size()));
    }

    static bool
    contains(const std::vector<std::uint64_t> &v, std::size_t from,
             std::uint64_t x)
    {
        for (std::size_t i = from; i < v.size(); ++i) {
            if (v[i] == x)
                return true;
        }
        return false;
    }

    std::unique_ptr<sw::Workload> inner_;
    std::uint64_t pageBytes;
    std::uint64_t sectorBytes;
    std::uint64_t captureFrom;
    std::uint64_t captureTo;
};

/** Forwarding WalkBackend that times submit() on the wrapped backend. */
class TimedBackend : public sw::WalkBackend
{
  public:
    explicit TimedBackend(std::unique_ptr<sw::WalkBackend> inner)
        : inner_(std::move(inner))
    {
    }

    void
    submit(sw::WalkRequest req) override
    {
        Clock::time_point start = Clock::now();
        inner_->submit(std::move(req));
        span.seconds += secondsBetween(start, Clock::now());
        ++span.calls;
    }

    std::uint64_t inFlight() const override { return inner_->inFlight(); }
    std::string name() const override { return inner_->name(); }
    void resetStats() override { inner_->resetStats(); }
    void registerAudits(sw::Auditor &a) override { inner_->registerAudits(a); }
    void setTracer(sw::TranslationTracer *t) override { inner_->setTracer(t); }
    void setLedger(sw::CycleLedger *l) override { inner_->setLedger(l); }
    void registerStats(sw::StatGroup g) override { inner_->registerStats(g); }
    void registerGauges(sw::TimeSeriesSampler &s) override
    {
        inner_->registerGauges(s);
    }
    void saveState(sw::CkptWriter &w) const override { inner_->saveState(w); }
    void restoreState(sw::CkptReader &r) override { inner_->restoreState(r); }

    sw::WalkBackend &inner() { return *inner_; }

    SpanTotal span;

  private:
    std::unique_ptr<sw::WalkBackend> inner_;
};

/** Running mean/max of a sampled gauge. */
struct Gauge
{
    double sum = 0.0;
    double max = 0.0;
    std::uint64_t samples = 0;

    void
    add(double v)
    {
        sum += v;
        max = v > max ? v : max;
        ++samples;
    }
    double mean() const { return samples ? sum / double(samples) : 0.0; }
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
