// SWTIDY-AS: src/check/fixture_audit_fire.cc
//
// Firing cases for softwalker-audit-side-effect: SW_AUDIT arguments with
// side effects execute in audit builds only, so release runs diverge.

#include <cstdint>
#include <vector>

namespace sw {

struct FixtureAuditCtx;

struct FixtureComponent
{
    std::uint64_t counter = 0;
    std::uint64_t total = 0;
    std::vector<std::uint64_t> slots;

    void
    badIncrement(FixtureAuditCtx &ctx)
    {
        SW_AUDIT(ctx, counter++ < 100); // FIRE: softwalker-audit-side-effect
    }

    void
    badCompoundAssign(FixtureAuditCtx &ctx, std::uint64_t delta)
    {
        SW_AUDIT(ctx, (total += delta) < 1000); // FIRE: softwalker-audit-side-effect
    }

    void
    badMutatorCall(FixtureAuditCtx &ctx, std::uint64_t vpn)
    {
        SW_AUDIT(ctx, slots.insert(slots.end(), vpn) != slots.end()); // FIRE: softwalker-audit-side-effect
    }
};

} // namespace sw
