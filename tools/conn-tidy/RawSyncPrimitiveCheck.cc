#include "RawSyncPrimitiveCheck.h"

#include "ConnTidyUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace conn {

RawSyncPrimitiveCheck::RawSyncPrimitiveCheck(StringRef name,
                                             ClangTidyContext* context)
    : ClangTidyCheck(name, context),
      raw_allowed_files_(Options.get("AllowedFiles", "common/mutex.h")),
      allowed_files_(SplitList(raw_allowed_files_)) {}

void RawSyncPrimitiveCheck::storeOptions(ClangTidyOptions::OptionMap& opts) {
  Options.store(opts, "AllowedFiles", raw_allowed_files_);
}

void RawSyncPrimitiveCheck::registerMatchers(MatchFinder* finder) {
  // Matches every spelled-out use of a raw primitive type: fields, locals,
  // parameters, template arguments, return types.  Sugar layers
  // (elaborated and template-specialization types) each produce a TypeLoc
  // at the same location; check() dedupes.
  const auto raw_sync_decl = namedDecl(hasAnyName(
      "::std::mutex", "::std::timed_mutex", "::std::recursive_mutex",
      "::std::recursive_timed_mutex", "::std::shared_mutex",
      "::std::shared_timed_mutex", "::std::condition_variable",
      "::std::condition_variable_any", "::std::lock_guard",
      "::std::unique_lock", "::std::scoped_lock", "::std::shared_lock"));
  finder->addMatcher(typeLoc(loc(qualType(hasDeclaration(raw_sync_decl))),
                             unless(isExpansionInSystemHeader()))
                         .bind("use"),
                     this);
}

void RawSyncPrimitiveCheck::check(const MatchFinder::MatchResult& result) {
  const auto* use = result.Nodes.getNodeAs<TypeLoc>("use");
  if (use == nullptr) return;
  const SourceManager& sm = *result.SourceManager;
  const SourceLocation loc = sm.getFileLoc(use->getBeginLoc());
  if (loc.isInvalid()) return;
  if (PathEndsWithAny(sm.getFilename(loc), allowed_files_)) return;
  if (!reported_.insert(loc).second) return;
  diag(loc,
       "raw standard synchronization primitive %0; use the "
       "capability-annotated wrappers in common/mutex.h (conn::Mutex, "
       "conn::MutexLock) so -Wthread-safety sees the acquisition")
      << use->getType().getAsString();
}

}  // namespace conn
}  // namespace tidy
}  // namespace clang
