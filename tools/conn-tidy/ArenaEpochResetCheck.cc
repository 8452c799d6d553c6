#include "ArenaEpochResetCheck.h"

#include "ConnTidyUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/DeclCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace conn {

ArenaEpochResetCheck::ArenaEpochResetCheck(StringRef name,
                                           ClangTidyContext* context)
    : ClangTidyCheck(name, context),
      raw_allowed_classes_(Options.get(
          "AllowedClasses", "conn::vis::ScanArena;conn::vis::DijkstraScan")),
      allowed_classes_(SplitList(raw_allowed_classes_)) {}

void ArenaEpochResetCheck::storeOptions(ClangTidyOptions::OptionMap& opts) {
  Options.store(opts, "AllowedClasses", raw_allowed_classes_);
}

void ArenaEpochResetCheck::registerMatchers(MatchFinder* finder) {
  const auto stamp_member = memberExpr(
      member(fieldDecl(matchesName("stamp_$"),
                       hasDeclContext(cxxRecordDecl(
                           hasName("::conn::vis::ScanArena"))))))
                                .bind("stamp");
  // An element of a stamp array, via vector::operator[] or a plain
  // subscript, or the array object itself.
  const auto stamp_lvalue = anyOf(
      stamp_member,
      cxxOperatorCallExpr(hasOverloadedOperatorName("[]"),
                          hasArgument(0, ignoringParenImpCasts(stamp_member))),
      arraySubscriptExpr(hasBase(ignoringParenImpCasts(stamp_member))));
  // dist_stamp_[v] = epoch_, settled_stamp_ = {...}, and friends.
  finder->addMatcher(
      binaryOperator(isAssignmentOp(),
                     hasLHS(ignoringParenImpCasts(expr(stamp_lvalue))),
                     forFunction(functionDecl().bind("fn")))
          .bind("write"),
      this);
  // Bulk mutations: dist_stamp_.clear(), .assign(n, 0), .resize(0), ...
  finder->addMatcher(
      cxxMemberCallExpr(on(ignoringParenImpCasts(stamp_member)),
                        callee(cxxMethodDecl(hasAnyName(
                            "clear", "resize", "assign", "swap", "push_back",
                            "emplace_back", "pop_back", "erase", "insert",
                            "shrink_to_fit"))),
                        forFunction(functionDecl().bind("fn")))
          .bind("write"),
      this);
}

void ArenaEpochResetCheck::check(const MatchFinder::MatchResult& result) {
  const auto* fn = result.Nodes.getNodeAs<FunctionDecl>("fn");
  if (const auto* method = llvm::dyn_cast_or_null<CXXMethodDecl>(fn)) {
    const std::string owner =
        method->getParent()->getQualifiedNameAsString();
    for (const std::string& allowed : allowed_classes_)
      if (owner == allowed) return;
  }
  const auto* write = result.Nodes.getNodeAs<Stmt>("write");
  const auto* stamp = result.Nodes.getNodeAs<MemberExpr>("stamp");
  if (write == nullptr || stamp == nullptr) return;
  const SourceLocation loc =
      result.SourceManager->getFileLoc(write->getBeginLoc());
  diag(loc,
       "epoch-stamp array %0 written outside the ScanArena API; scan state "
       "is reset by bumping the epoch (a fresh DijkstraScan), never by "
       "writing the arrays directly")
      << stamp->getMemberDecl()->getName();
}

}  // namespace conn
}  // namespace tidy
}  // namespace clang
