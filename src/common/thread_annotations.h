// Clang thread-safety analysis annotations (ftdl::*).
//
// These macros expand to Clang's `__attribute__((...))` thread-safety
// attributes when the compiler supports them and to nothing everywhere
// else, so GCC/MSVC builds see plain declarations. Under Clang with
// `-Wthread-safety` (promoted by src/'s `-Werror`, and enforced by the
// `clang-thread-safety` CI job) the analysis statically proves that every
// access to a FTDL_GUARDED_BY member happens while its capability (mutex)
// is held.
//
// libstdc++'s std::mutex carries no capability attributes, so the analysis
// cannot see through it; annotated code must hold locks through the
// ftdl::Mutex / ftdl::MutexLock / ftdl::CondVar wrappers in
// common/mutex.h instead. The macro set and semantics follow the Clang
// documentation (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html);
// only the subset the codebase uses is defined here.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define FTDL_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define FTDL_THREAD_ANNOTATION_(x)
#endif

/// Marks a type as a capability ("mutex"): lockable state the analysis
/// tracks acquisition of.
#define FTDL_CAPABILITY(name) FTDL_THREAD_ANNOTATION_(capability(name))

/// Marks an RAII type whose constructor acquires and destructor releases a
/// capability (lock guards).
#define FTDL_SCOPED_CAPABILITY FTDL_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while `mu` is held.
#define FTDL_GUARDED_BY(mu) FTDL_THREAD_ANNOTATION_(guarded_by(mu))

/// Pointer member whose *pointee* is guarded by `mu` (the pointer itself is
/// not).
#define FTDL_PT_GUARDED_BY(mu) FTDL_THREAD_ANNOTATION_(pt_guarded_by(mu))

/// Function requires the listed capabilities to be held by the caller.
#define FTDL_REQUIRES(...) \
  FTDL_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function must be called WITHOUT the listed capabilities held (guards
/// against self-deadlock on non-reentrant mutexes).
#define FTDL_EXCLUDES(...) \
  FTDL_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function acquires the capability (and does not release it).
#define FTDL_ACQUIRE(...) \
  FTDL_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define FTDL_RELEASE(...) \
  FTDL_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `result`.
#define FTDL_TRY_ACQUIRE(result, ...) \
  FTDL_THREAD_ANNOTATION_(try_acquire_capability(result, __VA_ARGS__))

/// Function returns a reference to the given capability (accessor for a
/// member mutex).
#define FTDL_RETURN_CAPABILITY(mu) FTDL_THREAD_ANNOTATION_(lock_returned(mu))
