// conn-raw-sync-primitive: flags any use of the raw standard
// synchronization primitives (std::mutex, std::condition_variable,
// std::lock_guard, ...) outside common/mutex.h.  The repo's locking rule
// is that all latches go through the capability-annotated wrappers
// conn::Mutex / conn::MutexLock so Clang's -Wthread-safety analysis can see
// every acquisition; a bare std::mutex is invisible to it.
//
// Options:
//   AllowedFiles  ';'-separated path suffixes where the raw types are
//                 legitimate (default "common/mutex.h", the wrapper's own
//                 implementation).

#ifndef CONN_TOOLS_CONN_TIDY_RAW_SYNC_PRIMITIVE_CHECK_H_
#define CONN_TOOLS_CONN_TIDY_RAW_SYNC_PRIMITIVE_CHECK_H_

#include <string>
#include <vector>

#include "clang-tidy/ClangTidyCheck.h"
#include "clang/Basic/SourceLocation.h"
#include "llvm/ADT/DenseSet.h"

namespace clang {
namespace tidy {
namespace conn {

class RawSyncPrimitiveCheck : public ClangTidyCheck {
 public:
  RawSyncPrimitiveCheck(StringRef name, ClangTidyContext* context);
  void registerMatchers(ast_matchers::MatchFinder* finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult& result) override;
  void storeOptions(ClangTidyOptions::OptionMap& opts) override;

 private:
  const std::string raw_allowed_files_;
  const std::vector<std::string> allowed_files_;
  llvm::DenseSet<SourceLocation> reported_;
};

}  // namespace conn
}  // namespace tidy
}  // namespace clang

#endif  // CONN_TOOLS_CONN_TIDY_RAW_SYNC_PRIMITIVE_CHECK_H_
