// Capability-annotated mutex wrappers: the only lock primitives allowed in
// src/ (conn-tidy's conn-raw-sync-primitive check rejects raw std::mutex,
// std::condition_variable and friends outside this header).
//
// The annotation macros drive Clang's thread-safety analysis
// (-Wthread-safety): each latch declares which fields it guards
// (GUARDED_BY) and each internal method declares which latch the caller
// must hold (REQUIRES), so a forgotten lock or a call to a
// latch-held-only helper without the latch is a *compile error* in the
// thread-safety CI configuration instead of a TSan roll of the dice.  Off
// Clang the macros expand to nothing and the wrappers cost exactly one
// std::mutex.
//
// Macro names follow Clang's official thread-safety documentation (the
// same set Abseil ships); see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#ifndef CONN_COMMON_MUTEX_H_
#define CONN_COMMON_MUTEX_H_

#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define CONN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CONN_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

#define CAPABILITY(x) CONN_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY CONN_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) CONN_THREAD_ANNOTATION(guarded_by(x))
#define REQUIRES(...) \
  CONN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) CONN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) CONN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

namespace conn {

/// A std::mutex carrying the "mutex" capability for Clang's analysis.
/// Take it through the RAII MutexLock; Lock()/Unlock() carry the acquire
/// and release annotations the analysis tracks.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over a Mutex (SCOPED_CAPABILITY).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace conn

#endif  // CONN_COMMON_MUTEX_H_
