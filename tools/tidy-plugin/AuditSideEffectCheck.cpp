//===--- AuditSideEffectCheck.cpp - softwalker- checks --------------------===//

#include "AuditSideEffectCheck.h"

#include "clang/Basic/IdentifierTable.h"
#include "clang/Lex/MacroArgs.h"
#include "clang/Lex/PPCallbacks.h"
#include "clang/Lex/Preprocessor.h"
#include "llvm/ADT/StringSet.h"

namespace clang {
namespace tidy {
namespace softwalker {

namespace {

const llvm::StringSet<> &mutatorNames() {
  static const llvm::StringSet<> Names = {
      "push_back", "pop_back",  "push_front", "pop_front", "insert",
      "emplace",   "emplace_back", "emplace_front", "erase", "clear",
      "assign",    "resize",    "reserve",    "swap",      "merge",
      "extract",   "push",      "pop",        "reset",     "release",
      "append",    "remove",    "sort",       "splice"};
  return Names;
}

class AuditSideEffectPPCallbacks : public PPCallbacks {
public:
  AuditSideEffectPPCallbacks(AuditSideEffectCheck &Check,
                             const SourceManager &SM)
      : Check(Check), SM(SM) {}

  void MacroExpands(const Token &MacroNameTok, const MacroDefinition &,
                    SourceRange, const MacroArgs *Args) override {
    const IdentifierInfo *Ident = MacroNameTok.getIdentifierInfo();
    if (!Ident || !Args)
      return;
    const StringRef Macro = Ident->getName();
    if (Macro != "SW_AUDIT")
      return;
    // Only diagnose expansions spelled in real files (not nested macros).
    const SourceLocation Loc = MacroNameTok.getLocation();
    if (!Loc.isFileID())
      return;
    for (unsigned I = 0, N = Args->getNumMacroArguments(); I != N; ++I)
      scanArg(Args->getUnexpArgument(I), Macro, Loc);
  }

private:
  // Token stream of one unexpanded macro argument, terminated by eof.
  void scanArg(const Token *Tok, StringRef Macro, SourceLocation MacroLoc) {
    if (!Tok)
      return;
    int Depth = 0; // paren/bracket/brace depth inside the argument
    const Token *Prev2 = nullptr;
    const Token *Prev = nullptr;
    for (; Tok->isNot(tok::eof); Prev2 = Prev, Prev = Tok, ++Tok) {
      switch (Tok->getKind()) {
      case tok::plusplus:
      case tok::minusminus:
        report(*Tok, Macro, "increment/decrement");
        return;
      case tok::plusequal:
      case tok::minusequal:
      case tok::starequal:
      case tok::slashequal:
      case tok::percentequal:
      case tok::ampequal:
      case tok::pipeequal:
      case tok::caretequal:
      case tok::lesslessequal:
      case tok::greatergreaterequal:
        report(*Tok, Macro, "compound assignment");
        return;
      case tok::equal:
        // `=` at depth 0 is assignment; inside parens it can be a default
        // argument of a lambda, which the sim code never writes here —
        // still treat as assignment.  `==`/`<=`/... lex as distinct kinds.
        report(*Tok, Macro, "assignment");
        return;
      case tok::l_paren:
      case tok::l_square:
      case tok::l_brace:
        // `x.push_back(` / `x->insert(` — mutating member call.
        if (Tok->is(tok::l_paren) && Prev && Prev->is(tok::raw_identifier) &&
            Prev2 && (Prev2->is(tok::period) || Prev2->is(tok::arrow)) &&
            mutatorNames().contains(Prev->getRawIdentifier())) {
          report(*Prev, Macro, "mutating container call");
          return;
        }
        if (Tok->is(tok::l_paren) && Prev && Prev->is(tok::identifier) &&
            Prev2 && (Prev2->is(tok::period) || Prev2->is(tok::arrow)) &&
            Prev->getIdentifierInfo() &&
            mutatorNames().contains(Prev->getIdentifierInfo()->getName())) {
          report(*Prev, Macro, "mutating container call");
          return;
        }
        ++Depth;
        break;
      case tok::r_paren:
      case tok::r_square:
      case tok::r_brace:
        --Depth;
        break;
      default:
        break;
      }
    }
    (void)Depth;
    (void)MacroLoc;
  }

  void report(const Token &Tok, StringRef Macro, StringRef What) {
    SourceLocation Loc = Tok.getLocation();
    if (!Loc.isValid())
      return;
    Check.diag(SM.getSpellingLoc(Loc),
               "%0 inside %1 argument; %1 compiles out in some build "
               "variants, so this side effect makes behaviour depend on the "
               "build — hoist it out of the macro")
        << What << Macro;
  }

  AuditSideEffectCheck &Check;
  const SourceManager &SM;
};

} // namespace

AuditSideEffectCheck::AuditSideEffectCheck(StringRef Name,
                                           ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context) {}

void AuditSideEffectCheck::registerPPCallbacks(const SourceManager &SM,
                                               Preprocessor *PP,
                                               Preprocessor *) {
  PP->addPPCallbacks(std::make_unique<AuditSideEffectPPCallbacks>(*this, SM));
}

} // namespace softwalker
} // namespace tidy
} // namespace clang
