//===--- SoftWalkerTidyModule.cpp - softwalker- checks --------------------===//
//
// Registers the softwalker- check group as an out-of-tree clang-tidy
// module, loaded with `clang-tidy -load libSoftWalkerTidy.so`.
//
//===----------------------------------------------------------------------===//

#include "clang-tidy/ClangTidyModule.h"
#include "clang-tidy/ClangTidyModuleRegistry.h"

#include "AuditSideEffectCheck.h"
#include "NondeterministicIterationCheck.h"
#include "StatRegistrationCheck.h"
#include "WallclockInSimCheck.h"

namespace clang {
namespace tidy {
namespace softwalker {

class SoftWalkerTidyModule : public ClangTidyModule {
public:
  void addCheckFactories(ClangTidyCheckFactories &Factories) override {
    Factories.registerCheck<NondeterministicIterationCheck>(
        "softwalker-nondeterministic-iteration");
    Factories.registerCheck<WallclockInSimCheck>("softwalker-wallclock-in-sim");
    Factories.registerCheck<StatRegistrationCheck>(
        "softwalker-stat-registration");
    Factories.registerCheck<AuditSideEffectCheck>(
        "softwalker-audit-side-effect");
  }
};

static ClangTidyModuleRegistry::Add<SoftWalkerTidyModule>
    X("softwalker-module", "SoftWalker simulator contract checks.");

} // namespace softwalker

// Anchor the registry entry so the shared object keeps the registration.
volatile int SoftWalkerTidyModuleAnchorSource = 0;

} // namespace tidy
} // namespace clang
