/**
 * @file
 * swperf: the repo benchmark program (see METRICS.md).
 *
 *   swperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *          --golden-dir <dir> [--trace-out <file>]
 *   swperf --write-goldens <dir>
 *
 * --trace 0 repeats whole passes of the workload's jobs for about
 * <s> seconds and reports the end-to-end metrics; --trace 1 runs one
 * untraced and one traced pass plus the layer ladder and reports the
 * per-layer metrics.  Every job goes through the public API only (Gpu,
 * installWalkBackend / installBackend, collectResult, fingerprint,
 * SweepRunner) and is checked against its golden fingerprint (default
 * seed) or against its other runs in this process (any seed).  The last
 * stdout line is one JSON object: correct, attempted, failed, metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/softwalker.hh"
#include "gpu/gpu.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "ladder.hh"
#include "probes.hh"
#include "prof/run_manifest.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "workload/benchmarks.hh"

using namespace sw;
using namespace perfbench;

namespace {

/** The seed the committed golden fingerprints were taken at. */
constexpr std::uint64_t kDefaultSeed = 1;
/** Seeds reserved for gain claims; checked traced against untraced only. */
constexpr std::uint64_t kHeldOutSeeds[] = {1009, 2027, 3041, 4057, 5081};
/** sweep_mixed's SweepRunner worker count (never hardware_concurrency). */
constexpr unsigned kSweepWorkers = 2;
/** Set-ups per job in each sampling round; the per-job median is summed. */
constexpr int kSetupReps = 5;
/** Gauge sampling interval, in simulated cycles. */
constexpr Cycle kGaugeCycles = 500;
/** Instructions of each traced job's stream replayed by the ladder. */
constexpr std::uint64_t kCaptureInstrs = 2048;

const char *const kIrregular[] = {"bfs", "spmv", "gups", "xsb"};
const char *const kRegular[] = {"gemm", "red", "2dc", "histo"};
/** sweep_mixed's twelve jobs, longest first (by their host time). */
const char *const kSweepOrder[] = {
    "hw-histo", "sw-gups", "hw-gups", "sw-xsb", "hw-red", "hw-gemm",
    "hw-2dc", "sw-spmv", "sw-bfs", "hw-xsb", "hw-bfs", "hw-spmv"};

/** A fatal()/panic()/audit failure, trapped so the workload goes on. */
struct SimFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

struct JobSpec
{
    std::string key;   ///< "sw-bfs", "hw-gemm", ...: golden file stem
    const BenchmarkInfo *info = nullptr;
    GpuConfig cfg;
    Gpu::RunLimits limits;
    bool softwalker = false;

    std::uint64_t fetched() const
    {
        return limits.warpInstrQuota + limits.warmupInstrs;
    }
};

JobSpec
makeJob(const char *bench, bool softwalker, std::uint64_t seed)
{
    JobSpec job;
    job.info = &findBenchmark(bench);
    job.softwalker = softwalker;
    job.cfg = softwalker ? makeSoftWalkerConfig() : makeDefaultConfig();
    job.cfg.rngSeed = seed;
    job.limits = limitsFor(*job.info);
    job.key = std::string(softwalker ? "sw-" : "hw-") + bench;
    return job;
}

struct WorkloadDef
{
    std::vector<JobSpec> jobs;
    unsigned workers = 1;   ///< > 1: run through SweepRunner
};

bool
buildWorkload(const std::string &name, std::uint64_t seed, WorkloadDef &out)
{
    auto add = [&](const char *const (&benches)[4], bool softwalker) {
        for (const char *bench : benches)
            out.jobs.push_back(makeJob(bench, softwalker, seed));
    };
    if (name == "irregular_sw") {
        add(kIrregular, true);
    } else if (name == "irregular_hw") {
        add(kIrregular, false);
    } else if (name == "regular_hw") {
        add(kRegular, false);
    } else if (name == "sweep_mixed") {
        // Longest job first, in a fixed order, so the two workers finish
        // together and the makespan does not hinge on which job runs last.
        for (const char *key : kSweepOrder)
            out.jobs.push_back(makeJob(key + 3, key[0] == 's', seed));
        out.workers = kSweepWorkers;
    } else {
        return false;
    }
    return true;
}

/** Everything one job run yields. */
struct JobOutcome
{
    std::string error;   ///< empty when the run itself succeeded
    std::string fp;
    RunResult result;
    double setupS = 0.0;
    double loopS = 0.0;
    double collectS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::uint64_t allocBytes = 0;
    // Measured-region call counts, for the ladder reconciliation.
    std::uint64_t translates = 0;
    std::uint64_t dataAccesses = 0;
    std::uint64_t pteAccesses = 0;
    // Traced runs only.
    SpanTotal next;
    SpanTotal submit;
    Gauge pending;
    Gauge inflight;
    Gauge queued;
    Capture capture;

    double jobS() const { return setupS + loopS + collectS; }
};

/** collectResult() reads SoftWalker stats through a dynamic_cast that a
 *  wrapped backend defeats; take them from the inner backend instead. */
void
copySoftWalkerStats(RunResult &out, SoftWalkerBackend &backend)
{
    out.swToHardware = backend.stats().toHardware;
    out.swToSoftware = backend.stats().toSoftware;
    PwWarp::Stats pw = backend.aggregatePwWarpStats();
    out.swBatches = pw.batches;
    out.swAvgBatchSize = pw.batchSize.mean();
    out.swInstructions = pw.instructionsIssued;
}

/** Workload materialisation + Gpu construction + backend install. */
std::unique_ptr<Gpu>
setUp(const JobSpec &spec, TimedWorkload **timed_workload,
      TimedBackend **timed_backend, std::string &name)
{
    std::unique_ptr<Workload> workload = makeWorkload(*spec.info);
    if (timed_workload) {
        auto timed = std::make_unique<TimedWorkload>(
            std::move(workload), spec.cfg.pageBytes, spec.cfg.sectorBytes,
            spec.limits.warmupInstrs, kCaptureInstrs);
        *timed_workload = timed.get();
        workload = std::move(timed);
    }
    name = workload->name();
    auto gpu = std::make_unique<Gpu>(spec.cfg, std::move(workload));
    if (timed_backend && spec.softwalker) {
        auto timed = std::make_unique<TimedBackend>(
            std::make_unique<SoftWalkerBackend>(*gpu, spec.cfg));
        *timed_backend = timed.get();
        gpu->installBackend(std::move(timed));
    } else {
        installWalkBackend(*gpu);
    }
    return gpu;
}

JobOutcome
runJob(const JobSpec &spec, bool traced)
{
    JobOutcome out;
    try {
        TimedWorkload *tw = nullptr;
        TimedBackend *tb = nullptr;
        std::string name;
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<Gpu> gpu = setUp(spec, traced ? &tw : nullptr,
                                         traced ? &tb : nullptr, name);
        if (traced) {
            EventQueue &eq = gpu->eventQueue();
            auto *backend =
                tb ? static_cast<SoftWalkerBackend *>(&tb->inner()) : nullptr;
            eq.addPeriodicCheck(kGaugeCycles, [&out, &eq, backend](Cycle) {
                out.pending.add(double(eq.pending()));
                if (backend) {
                    out.inflight.add(double(backend->inFlight()));
                    out.queued.add(double(backend->queuedRequests()));
                }
            });
        }
        Clock::time_point t1 = Clock::now();
        AllocSnapshot a0 = allocSnapshot();
        gpu->run(spec.limits);
        AllocSnapshot a1 = allocSnapshot();
        Clock::time_point t2 = Clock::now();
        out.result = collectResult(*gpu, name);
        if (tb) {
            copySoftWalkerStats(out.result,
                                static_cast<SoftWalkerBackend &>(tb->inner()));
        }
        Clock::time_point t3 = Clock::now();

        out.setupS = secondsBetween(t0, t1);
        out.loopS = secondsBetween(t1, t2);
        out.collectS = secondsBetween(t2, t3);
        out.events = gpu->eventQueue().eventsExecuted();
        out.allocs = a1.allocs - a0.allocs;
        out.allocBytes = a1.bytes - a0.bytes;
        out.translates = gpu->engine().stats().requests;
        out.dataAccesses = gpu->memory().stats().dataAccesses;
        out.pteAccesses = gpu->memory().stats().pteAccesses;
        out.fp = fingerprint(out.result);
        if (tw) {
            out.next = tw->span;
            out.capture = std::move(tw->capture);
        }
        if (tb)
            out.submit = tb->span;

        if (!gpu->eventQueue().empty() ||
            gpu->cycles() >= spec.limits.maxCycles) {
            out.error = strprintf("hit maxCycles (%llu)",
                                  (unsigned long long)spec.limits.maxCycles);
        } else if (out.result.warpInstrs == 0 ||
                   (tw && tw->span.calls < spec.fetched())) {
            out.error = "fell short of its quota";
        } else if (!gpu->auditor().violations().empty()) {
            out.error = "audit: " + gpu->auditor().violations()[0].detail;
        }
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

struct Pass
{
    std::vector<JobOutcome> jobs;
    double wallS = 0.0;
};

Pass
runPass(const WorkloadDef &def, unsigned workers, bool traced)
{
    Pass pass;
    pass.jobs.resize(def.jobs.size());
    Clock::time_point start = Clock::now();
    if (workers <= 1) {
        for (std::size_t i = 0; i < def.jobs.size(); ++i)
            pass.jobs[i] = runJob(def.jobs[i], traced);
    } else {
        SweepRunner runner(workers);
        for (std::size_t i = 0; i < def.jobs.size(); ++i) {
            runner.submit("", [&pass, &def, i, traced]() {
                pass.jobs[i] = runJob(def.jobs[i], traced);
                return pass.jobs[i].result;
            });
        }
        runner.run();
    }
    pass.wallS = secondsBetween(start, Clock::now());
    return pass;
}

/** Reference fingerprints: goldens (default seed) or the first pass. */
struct Checker
{
    std::map<std::string, std::string> expected;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(const WorkloadDef &def, const Pass &pass, const char *what,
          const Pass *twin = nullptr)
    {
        for (std::size_t i = 0; i < def.jobs.size(); ++i) {
            const std::string &key = def.jobs[i].key;
            const JobOutcome &job = pass.jobs[i];
            std::string why = job.error;
            if (why.empty() && twin && twin->jobs[i].fp != job.fp)
                why = "traced fingerprint differs from untraced";
            if (why.empty()) {
                auto it = expected.find(key);
                if (it == expected.end())
                    expected[key] = job.fp;
                else if (it->second != job.fp)
                    why = "fingerprint differs from the reference";
            }
            ++attempted;
            if (!why.empty()) {
                ++failed;
                std::fprintf(stderr, "swperf: FAIL %s (%s): %s\n",
                             key.c_str(), what, why.c_str());
            }
        }
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Set-up seconds per job, sampled in rounds spread over the run. */
class SetupSampler
{
  public:
    explicit SetupSampler(const WorkloadDef &def)
        : def(def), reps(def.jobs.size())
    {
    }

    /** Set every job up (and tear it down) kSetupReps times. */
    void
    round()
    {
        for (std::size_t i = 0; i < def.jobs.size(); ++i) {
            for (int r = 0; r < kSetupReps; ++r) {
                std::string name;
                Clock::time_point start = Clock::now();
                std::unique_ptr<Gpu> gpu =
                    setUp(def.jobs[i], nullptr, nullptr, name);
                reps[i].push_back(secondsBetween(start, Clock::now()));
            }
        }
    }

    /** Sum over jobs of each job's median set-up seconds. */
    double
    total() const
    {
        double sum = 0.0;
        for (const std::vector<double> &job : reps)
            sum += median(job);
        return sum;
    }

  private:
    const WorkloadDef &def;
    std::vector<std::vector<double>> reps;
};

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;   // ru_maxrss is in KiB
}

/** Ordered metric list; values printed with every significant digit. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries.size(); ++i) {
            out += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i ? ", " : "", entries[i].name.c_str(),
                             entries[i].value, entries[i].unit.c_str());
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;
};

/** Total warp instructions fetched by one pass (warmup included). */
double
fetchedInstrs(const WorkloadDef &def)
{
    double total = 0.0;
    for (const JobSpec &spec : def.jobs)
        total += double(spec.fetched());
    return total;
}

void
endToEnd(const WorkloadDef &def, double seconds, Checker &checker,
         Metrics &metrics)
{
    SetupSampler setup(def);
    double instrs = fetchedInstrs(def);
    std::vector<double> kips;
    double spent = 0.0;
    do {
        setup.round();
        Pass pass = runPass(def, def.workers, false);
        checker.check(def, pass, "timed");
        kips.push_back(instrs / pass.wallS / 1e3);
        spent += pass.wallS;
        std::fprintf(stderr, "swperf: pass %zu: %.3f s, %.3f kinstr/s\n",
                     kips.size(), pass.wallS, kips.back());
    } while (spent + spent / double(kips.size()) <= seconds);
    setup.round();

    metrics.add("sim_kips", median(kips), "kinstr/s");
    metrics.add("setup_s", setup.total(), "s");
    metrics.add("peak_rss_mib", peakRssMib(), "MiB");
}

/** A job's ladder rungs and the in-run calls each rung stands for. */
struct JobLadder
{
    Rungs rungs;
    double translates = 0.0;
    double walks = 0.0;
    double accesses = 0.0;  ///< data + PTE
    double covered = 0.0;   ///< seconds of loop self time the rungs explain
};

void
perLayer(const WorkloadDef &def, Checker &checker, Metrics &metrics,
         const std::string &trace_out)
{
    SetupSampler setup(def);
    setup.round();
    Pass untraced = runPass(def, def.workers, false);
    checker.check(def, untraced, "untraced");
    Pass serial;
    if (def.workers > 1) {
        serial = runPass(def, 1, false);
        checker.check(def, serial, "serial");
    }
    Pass traced = runPass(def, def.workers, true);
    checker.check(def, traced, "traced", &untraced);

    const std::size_t n = def.jobs.size();
    std::vector<JobLadder> ladders(n);
    for (std::size_t i = 0; i < n; ++i) {
        const JobOutcome &t = traced.jobs[i];
        if (!t.error.empty())
            continue;
        std::uint64_t depth = std::uint64_t(std::llround(t.pending.mean()));
        JobLadder &l = ladders[i];
        const Rungs &r = l.rungs =
            runLadder(makeDefaultConfig(), t.capture, depth);

        // In-run calls: measured-region calls per warp instruction scaled
        // to every fetched instruction (warmup included).  Each rung is
        // charged with the events it executes itself; the events left
        // over are charged at the bare-queue cost.
        double scale = ratio(double(def.jobs[i].fetched()),
                             double(t.result.warpInstrs));
        l.translates = double(t.translates) * scale;
        l.walks = double(t.result.walks) * scale;
        l.accesses = double(t.dataAccesses + t.pteAccesses) * scale;
        double rung_events = l.translates * r.lookupEvents +
                             l.walks * r.walkEvents +
                             l.accesses * r.accessEvents;
        double ns = l.translates * r.lookupNs + l.walks * r.walkNs +
                    l.accesses * r.accessNs +
                    std::max(0.0, double(t.events) - rung_events) * r.eventNs;
        l.covered = ns * 1e-9;
    }

    // ---- Aggregation ------------------------------------------------------
    double events = 0, allocs = 0, alloc_bytes = 0, loop_u = 0, fetched = 0;
    double loop_t = 0, self_t = 0, covered = 0, collect = 0, jobs_u = 0;
    double jobs_s = 0;
    Gauge pending, inflight, queued;
    SpanTotal next, submit;
    double instrs = 0, cycles = 0, sm_cycles = 0, stall = 0;
    double l1_hits = 0, l1_acc = 0, l2_hits = 0, l2_acc = 0, mshr_fail = 0;
    double intlb = 0, walks = 0, walk_q = 0, walk_x = 0, mpki_err = 0;
    double batches = 0, batch_walks = 0, pw_instrs = 0;
    double data = 0, pte = 0, l2d_acc = 0, l2d_miss = 0, l2d_fail = 0;
    double dram = 0;
    double w_event = 0, w_translate = 0, w_lookup = 0, w_walk = 0;
    double w_access = 0, n_translate = 0, n_walk = 0, n_access = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const JobSpec &spec = def.jobs[i];
        const JobOutcome &u = untraced.jobs[i];
        const JobOutcome &t = traced.jobs[i];
        // Allocation counts come from a pass run on one thread in job
        // order: InlineFunction's thread-local overflow slab recycles
        // blocks across jobs, so which jobs shared a sweep worker would
        // otherwise change them.
        const JobOutcome &a = def.workers > 1 ? serial.jobs[i] : u;
        const RunResult &r = u.result;
        events += double(u.events);
        allocs += double(a.allocs);
        alloc_bytes += double(a.allocBytes);
        loop_u += u.loopS;
        fetched += double(spec.fetched());
        collect += u.collectS;
        jobs_u += u.jobS();
        if (def.workers > 1)
            jobs_s += serial.jobs[i].jobS();

        loop_t += t.loopS;
        self_t += t.loopS - t.next.seconds - t.submit.seconds;
        covered += ladders[i].covered;
        next.calls += t.next.calls;
        next.seconds += t.next.seconds;
        submit.calls += t.submit.calls;
        submit.seconds += t.submit.seconds;
        pending.sum += t.pending.sum;
        pending.samples += t.pending.samples;
        pending.max = std::max(pending.max, t.pending.max);
        inflight.sum += t.inflight.sum;
        inflight.samples += t.inflight.samples;
        queued.sum += t.queued.sum;
        queued.samples += t.queued.samples;

        instrs += double(r.warpInstrs);
        cycles += double(r.cycles);
        sm_cycles += double(r.cycles) * double(spec.cfg.numSms);
        stall += double(r.memStallCycles);
        l1_hits += double(r.l1TlbHits);
        l1_acc += double(r.l1TlbHits + r.l1TlbMisses);
        l2_hits += double(r.l2TlbHits);
        l2_acc += double(r.l2TlbAccesses);
        mshr_fail += double(r.l2MshrFailures);
        intlb += double(r.inTlbMshrAllocs);
        walks += double(r.walks);
        walk_q += r.avgWalkQueueDelay * double(r.walks);
        walk_x += r.avgWalkAccessLatency * double(r.walks);
        mpki_err += std::fabs(r.l2TlbMpki - spec.info->paperMpki) /
                    spec.info->paperMpki / double(n);
        batches += double(r.swBatches);
        batch_walks += r.swAvgBatchSize * double(r.swBatches);
        pw_instrs += double(r.swInstructions);
        data += double(u.dataAccesses);
        pte += double(u.pteAccesses);
        l2d_acc += double(r.l2dAccesses);
        l2d_miss += r.l2dMissRate * double(r.l2dAccesses);
        l2d_fail += double(r.l2dMshrFailures);
        dram += r.dramUtilisation / double(n);

        // Rungs weighted by the in-run calls they stand for.
        const JobLadder &l = ladders[i];
        w_event += l.rungs.eventNs * double(u.events);
        w_translate += l.rungs.translateNs * l.translates;
        w_lookup += l.rungs.lookupNs * l.translates;
        w_walk += l.rungs.walkNs * l.walks;
        w_access += l.rungs.accessNs * l.accesses;
        n_translate += l.translates;
        n_walk += l.walks;
        n_access += l.accesses;
    }

    metrics.add("sim.events", events, "count");
    metrics.add("sim.events_per_instr", ratio(events, fetched), "events/instr");
    metrics.add("sim.host_ns_per_event", ratio(loop_u * 1e9, events), "ns");
    metrics.add("sim.allocs_per_event", ratio(allocs, events), "allocs/event");
    metrics.add("sim.alloc_bytes_per_event", ratio(alloc_bytes, events),
                "B/event");
    metrics.add("sim.queue_depth_mean", pending.mean(), "events");
    metrics.add("sim.queue_depth_max", pending.max, "events");
    metrics.add("sim.ladder_ns_per_event", ratio(w_event, events), "ns");

    metrics.add("gpu.loop_self_s", self_t, "s");
    metrics.add("gpu.warp_instrs", instrs, "count");
    metrics.add("gpu.sim_cycles", cycles, "cycles");
    metrics.add("gpu.sim_ipc", ratio(instrs, cycles), "instr/cycle");
    metrics.add("gpu.stall_fraction", ratio(stall, sm_cycles), "ratio");

    metrics.add("workload.next_calls", double(next.calls), "count");
    metrics.add("workload.next_ns",
                ratio(next.seconds * 1e9, double(next.calls)), "ns");
    metrics.add("workload.loop_share", ratio(next.seconds, loop_t), "ratio");

    metrics.add("vm.l1tlb_hit_rate", ratio(l1_hits, l1_acc), "ratio");
    metrics.add("vm.l2tlb_hit_rate", ratio(l2_hits, l2_acc), "ratio");
    metrics.add("vm.l2tlb_mshr_failures", mshr_fail, "count");
    metrics.add("vm.intlb_mshr_allocs", intlb, "count");
    metrics.add("vm.walks", walks, "count");
    metrics.add("vm.walk_queue_cy", ratio(walk_q, walks), "cycles");
    metrics.add("vm.walk_exec_cy", ratio(walk_x, walks), "cycles");
    metrics.add("vm.l2tlb_mpki_err", mpki_err, "ratio");
    metrics.add("vm.ladder_translate_ns", ratio(w_translate, n_translate),
                "ns");
    metrics.add("vm.ladder_tlb_lookup_ns", ratio(w_lookup, n_translate), "ns");
    metrics.add("vm.ladder_walk_ns", ratio(w_walk, n_walk), "ns");

    metrics.add("core.submits", double(submit.calls), "count");
    metrics.add("core.submit_ns",
                ratio(submit.seconds * 1e9, double(submit.calls)), "ns");
    metrics.add("core.inflight_mean", inflight.mean(), "walks");
    metrics.add("core.queued_mean", queued.mean(), "walks");
    metrics.add("core.pw_batches", batches, "count");
    metrics.add("core.pw_batch_size", ratio(batch_walks, batches), "walks");
    metrics.add("core.pw_instrs", pw_instrs, "count");

    metrics.add("mem.data_accesses", data, "count");
    metrics.add("mem.pte_accesses", pte, "count");
    metrics.add("mem.l2d_miss_rate", ratio(l2d_miss, l2d_acc), "ratio");
    metrics.add("mem.l2d_mshr_failures", l2d_fail, "count");
    metrics.add("mem.dram_util", dram, "ratio");
    metrics.add("mem.ladder_access_ns", ratio(w_access, n_access), "ns");

    metrics.add("harness.setup_ms_per_job", setup.total() * 1e3 / double(n),
                "ms");
    metrics.add("harness.collect_ms", collect * 1e3 / double(n), "ms");
    metrics.add("harness.parallel_speedup", ratio(jobs_u, untraced.wallS),
                "ratio");
    // A serial workload is its own serial reference.
    metrics.add("harness.job_slowdown",
                def.workers > 1 ? ratio(jobs_u, jobs_s) : 1.0, "ratio");
    metrics.add("harness.error_rate",
                ratio(double(checker.failed), double(checker.attempted)),
                "ratio");

    metrics.add("ladder.residual_share", 1.0 - ratio(covered, self_t),
                "ratio");
    metrics.add("trace.overhead", ratio(traced.wallS, untraced.wallS) - 1.0,
                "ratio");

    if (trace_out.empty())
        return;
    // Spans share a job id; child spans are aggregated per job.
    std::ofstream out(trace_out);
    out << "{\n  \"manifest\": " << RunManifest::collect().toJson(2)
        << ",\n  \"jobs\": [";
    for (std::size_t i = 0; i < n; ++i) {
        const JobOutcome &t = traced.jobs[i];
        const Rungs &g = ladders[i].rungs;
        out << (i ? "," : "") << "\n    {\"job\": " << i << ", \"key\": \""
            << def.jobs[i].key << "\", \"spans\": ["
            << strprintf("{\"name\": \"harness.setup\", \"s\": %.9g}, ",
                         t.setupS)
            << strprintf("{\"name\": \"gpu.run\", \"s\": %.9g, \"children\": "
                         "[{\"name\": \"workload.next\", \"calls\": %llu, "
                         "\"s\": %.9g}, {\"name\": \"core.submit\", "
                         "\"calls\": %llu, \"s\": %.9g}]}, ",
                         t.loopS, (unsigned long long)t.next.calls,
                         t.next.seconds, (unsigned long long)t.submit.calls,
                         t.submit.seconds)
            << strprintf("{\"name\": \"harness.collect\", \"s\": %.9g}], ",
                         t.collectS)
            << strprintf("\"gauges\": {\"pending\": {\"mean\": %.9g, "
                         "\"max\": %.9g, \"samples\": %llu}, \"inFlight\": "
                         "{\"mean\": %.9g, \"max\": %.9g}, "
                         "\"queuedRequests\": {\"mean\": %.9g, \"max\": "
                         "%.9g}}, ",
                         t.pending.mean(), t.pending.max,
                         (unsigned long long)t.pending.samples,
                         t.inflight.mean(), t.inflight.max, t.queued.mean(),
                         t.queued.max)
            << strprintf("\"ladder_ns\": {\"event\": %.9g, \"translate\": "
                         "%.9g, \"tlb_lookup\": %.9g, \"walk\": %.9g, "
                         "\"access\": %.9g}}",
                         g.eventNs, g.translateNs, g.lookupNs, g.walkNs,
                         g.accessNs);
    }
    out << "\n  ]\n}\n";
}

int
writeGoldens(const std::string &dir)
{
    WorkloadDef all;
    buildWorkload("sweep_mixed", kDefaultSeed, all);
    for (const JobSpec &spec : all.jobs) {
        JobOutcome job = runJob(spec, false);
        if (!job.error.empty()) {
            std::fprintf(stderr, "swperf: %s failed: %s\n", spec.key.c_str(),
                         job.error.c_str());
            return 1;
        }
        std::ofstream(dir + "/" + spec.key + ".fp", std::ios::binary)
            << job.fp;
        std::fprintf(stderr, "swperf: wrote %s/%s.fp\n", dir.c_str(),
                     spec.key.c_str());
    }
    return 0;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "swperf: %s\nusage: swperf --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --golden-dir <dir> "
                 "[--trace-out <file>]\n       swperf --write-goldens "
                 "<dir>\n",
                 msg);
    std::exit(2);
}

/** Run the benchmark @p args describe; @return the exit code. */
int
drive(std::map<std::string, std::string> &args)
{
    if (args.count("write-goldens"))
        return writeGoldens(args["write-goldens"]);

    for (const char *required :
         {"workload", "seed", "seconds", "trace", "golden-dir"}) {
        if (!args.count(required))
            usage((std::string("missing --") + required).c_str());
    }
    char *end = nullptr;
    std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
    if (*end != '\0' || args["seed"].empty() || args["seed"][0] == '-')
        usage("--seed must be a non-negative integer");
    double seconds = std::strtod(args["seconds"].c_str(), &end);
    if (*end != '\0' || !(seconds > 0.0))
        usage("--seconds must be a positive number");
    if (args["trace"] != "0" && args["trace"] != "1")
        usage("--trace must be 0 or 1");
    bool trace = args["trace"] == "1";
    WorkloadDef def;
    if (!buildWorkload(args["workload"], seed, def))
        usage(("unknown workload '" + args["workload"] + "'").c_str());

    Checker checker;
    if (seed == kDefaultSeed) {
        for (const JobSpec &spec : def.jobs) {
            std::string path = args["golden-dir"] + "/" + spec.key + ".fp";
            std::string golden = readFile(path);
            if (golden.empty()) {
                std::fprintf(stderr, "swperf: missing golden %s\n",
                             path.c_str());
                return 1;
            }
            checker.expected[spec.key] = golden;
        }
    }
    bool held_out = std::find(std::begin(kHeldOutSeeds),
                              std::end(kHeldOutSeeds),
                              seed) != std::end(kHeldOutSeeds);
    std::fprintf(stderr, "swperf: %s seed %llu (%s), %zu jobs, %u worker(s)\n",
                 args["workload"].c_str(), (unsigned long long)seed,
                 seed == kDefaultSeed ? "default, golden-checked"
                 : held_out ? "held-out" : "self-checked",
                 def.jobs.size(), def.workers);

    Metrics metrics;
    if (trace)
        perLayer(def, checker, metrics, args["trace-out"]);
    else
        endToEnd(def, seconds, checker, metrics);

    std::printf("%s\n", RunManifest::collect().toJson(0).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checker.failed == 0 ? "true" : "false",
                (unsigned long long)checker.attempted,
                (unsigned long long)checker.failed, metrics.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
            usage(("bad argument '" + flag + "'").c_str());
        args[flag.substr(2)] = argv[++i];
    }
    setVerbose(false);
    setFailureHook([](const char *kind, const std::string &msg) {
        throw SimFailure(std::string(kind) + ": " + msg);
    });
    try {
        return drive(args);
    } catch (const std::exception &e) {
        // A failure outside any job (e.g. workload construction).
        std::fprintf(stderr, "swperf: %s\n", e.what());
        return 1;
    }
}
