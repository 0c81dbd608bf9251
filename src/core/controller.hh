/**
 * @file
 * SoftWalker Controller (§4.4): the per-SM unit that accepts page-walk
 * requests from the Request Distributor, fills them into the SoftPWB
 * (updating the status bitmap), and triggers the PW Warp.
 */

#ifndef SW_CORE_CONTROLLER_HH
#define SW_CORE_CONTROLLER_HH

#include <cstdint>
#include <memory>

#include "core/pw_warp.hh"
#include "core/soft_pwb.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "vm/walk.hh"

namespace sw {

/** Per-SM controller: SoftPWB + PW Warp pair. */
class SoftWalkerController
{
  public:
    struct Stats
    {
        std::uint64_t accepted = 0;
    };

    SoftWalkerController(EventQueue &eq, SmId sm,
                         std::uint32_t pwb_entries,
                         const AddressSpaceManager &spaces,
                         PwWarp::Hooks hooks, PwWarpCodeTiming timing,
                         std::uint32_t lanes, Cycle comm_latency,
                         const Probe *probe = nullptr)
        : eventq(eq), smId(sm), pwb(pwb_entries),
          warp(std::make_unique<PwWarp>(eq, spaces, pwb, hooks, timing,
                                        lanes, comm_latency, probe, sm))
    {
    }

    /** A request arrived from the distributor (after the comm latency). */
    void
    accept(WalkRequest req)
    {
        ++stats_.accepted;
        pwb.insert(std::move(req), eventq.now());
        warp->notifyWork();
    }

    SmId sm() const { return smId; }
    const SoftPwb &buffer() const { return pwb; }
    const PwWarp &pwWarp() const { return *warp; }
    const Stats &stats() const { return stats_; }

    void
    resetStats()
    {
        stats_ = Stats{};
        pwb.resetStats();
        warp->resetStats();
    }

    /** Register controller + SoftPWB + PW Warp counters. */
    void
    registerStats(StatGroup group)
    {
        group.counter("accepted", &stats_.accepted);
        pwb.registerStats(group.group("softpwb"));
        warp->registerStats(group.group("pwwarp"));
    }

    /** Serialise controller + SoftPWB + PW Warp counters (quiesced). */
    void
    saveState(CkptWriter &w) const
    {
        w.section("sw_controller");
        w.u32(smId);
        w.u64(stats_.accepted);
        pwb.saveState(w);
        warp->saveState(w);
    }

    /** Restore state saved by saveState(). */
    void
    restoreState(CkptReader &r)
    {
        r.expectSection("sw_controller");
        std::uint32_t sm = r.u32();
        if (sm != smId)
            fatal("checkpoint controller for SM %u restored into SM %u",
                  sm, smId);
        stats_.accepted = r.u64();
        pwb.restoreState(r);
        warp->restoreState(r);
    }

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    EventQueue &eventq;
    SmId smId;
    SoftPwb pwb;
    std::unique_ptr<PwWarp> warp;
    Stats stats_;
};

} // namespace sw

#endif // SW_CORE_CONTROLLER_HH
