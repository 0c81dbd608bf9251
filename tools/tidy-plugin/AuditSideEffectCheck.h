//===--- AuditSideEffectCheck.h - softwalker- checks -------------*- C++ -*-===//
//
// softwalker-audit-side-effect
//
// SW_AUDIT(...) compiles to `(void)sizeof(...)` unless SOFTWALKER_AUDIT is
// defined.  An argument expression with a side effect (assignment,
// increment, a mutating container call) therefore executes in some build
// variants and not others — the classic "assert with a side effect" bug,
// but harder to spot because the macro looks like plain logging.  This
// check lexes the spelled argument tokens of every SW_AUDIT expansion
// and flags ++/--, assignment and compound assignment, and calls to
// well-known mutating members (push_back, insert, erase, ...).
//
//===----------------------------------------------------------------------===//

#ifndef SOFTWALKER_TIDY_AUDIT_SIDE_EFFECT_CHECK_H
#define SOFTWALKER_TIDY_AUDIT_SIDE_EFFECT_CHECK_H

#include "clang-tidy/ClangTidyCheck.h"

namespace clang {
namespace tidy {
namespace softwalker {

class AuditSideEffectCheck : public ClangTidyCheck {
public:
  AuditSideEffectCheck(StringRef Name, ClangTidyContext *Context);
  void registerPPCallbacks(const SourceManager &SM, Preprocessor *PP,
                           Preprocessor *ModuleExpanderPP) override;
};

} // namespace softwalker
} // namespace tidy
} // namespace clang

#endif // SOFTWALKER_TIDY_AUDIT_SIDE_EFFECT_CHECK_H
