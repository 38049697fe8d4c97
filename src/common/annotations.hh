/**
 * @file
 * Clang thread-safety annotations + annotated lock primitives.
 *
 * The locking discipline of the serving stack (ThreadPool,
 * ShardDispatcher) used to live in comments; these macros make it a
 * compile-time contract. Under clang the build runs with
 * -Wthread-safety -Werror=thread-safety (see the IVE_CLANG_TIDY /
 * scripts/ci.sh --static wiring), so a guarded member touched without
 * its mutex, a lock released twice, or a wait predicate reading state
 * it does not own fails the build. Under gcc (which has no
 * thread-safety analysis) every macro expands to nothing and the
 * wrappers compile to the std primitives they hold.
 *
 * libstdc++'s std::mutex carries no capability attributes, so the
 * analysis cannot bind to it directly; Mutex/LockGuard/UniqueLock/
 * CondVar below are zero-overhead annotated wrappers (the abseil
 * pattern). Code that wants the analysis must use these instead of the
 * raw std types.
 *
 * Atomics are deliberately not annotated: ServerCounters, the
 * obs::Registry counters and the PolyWorkspace stats are std::atomic
 * with relaxed ordering and need no capability. State that
 * is written once before concurrent readers start
 * (ServerSession::server_ and ShardCoordinator::engines_ via
 * ingestKeys) is documented at the member instead; annotating it would
 * force a lock on the read-only hot path.
 */

#ifndef IVE_COMMON_ANNOTATIONS_HH
#define IVE_COMMON_ANNOTATIONS_HH

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define IVE_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define IVE_THREAD_ANNOTATION__(x) // no-op off clang
#endif

/** Marks a type as a lockable capability (mutexes). */
#define IVE_CAPABILITY(x) IVE_THREAD_ANNOTATION__(capability(x))

/** Marks an RAII type whose lifetime acquires/releases a capability. */
#define IVE_SCOPED_CAPABILITY IVE_THREAD_ANNOTATION__(scoped_lockable)

/** Member may only be touched while holding the named mutex. */
#define IVE_GUARDED_BY(x) IVE_THREAD_ANNOTATION__(guarded_by(x))

/** Pointee may only be touched while holding the named mutex. */
#define IVE_PT_GUARDED_BY(x) IVE_THREAD_ANNOTATION__(pt_guarded_by(x))

/** Caller must hold the listed mutexes exclusively. */
#define IVE_REQUIRES(...) \
    IVE_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/** Function acquires the listed mutexes (held on return). */
#define IVE_ACQUIRE(...) \
    IVE_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/** Function releases the listed mutexes (held on entry). */
#define IVE_RELEASE(...) \
    IVE_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/** Function acquires the mutex iff it returns `val`. */
#define IVE_TRY_ACQUIRE(val, ...) \
    IVE_THREAD_ANNOTATION__(try_acquire_capability(val, __VA_ARGS__))

/** Caller must NOT hold the listed mutexes (deadlock guard). */
#define IVE_EXCLUDES(...) \
    IVE_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/** Tells the analysis the capability is held here (runtime-checked
 *  elsewhere, e.g. inside a condition-variable wait predicate). */
#define IVE_ASSERT_CAPABILITY(x) \
    IVE_THREAD_ANNOTATION__(assert_capability(x))

/** Function returns a reference to the named mutex. */
#define IVE_RETURN_CAPABILITY(x) IVE_THREAD_ANNOTATION__(lock_returned(x))

/** Ordering hints for deadlock detection. */
#define IVE_ACQUIRED_BEFORE(...) \
    IVE_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define IVE_ACQUIRED_AFTER(...) \
    IVE_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/** Opts one function out of the analysis (justify at the use site). */
#define IVE_NO_THREAD_SAFETY_ANALYSIS \
    IVE_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace ive {

class CondVar;

/** std::mutex with capability attributes the analysis can track. */
class IVE_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() IVE_ACQUIRE() { mu_.lock(); }
    void unlock() IVE_RELEASE() { mu_.unlock(); }
    bool try_lock() IVE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

    /**
     * Declares (without runtime cost) that the calling context holds
     * this mutex. The one legitimate use is the first statement of a
     * condition-variable wait predicate: the predicate runs with the
     * lock held, but the analysis sees the lambda as a free function.
     */
    void assertHeld() const IVE_ASSERT_CAPABILITY(this) {}

  private:
    friend class CondVar;
    friend class UniqueLock;
    std::mutex mu_;
};

/** Annotated std::lock_guard: scope-locks a Mutex. */
class IVE_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mu) IVE_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~LockGuard() IVE_RELEASE() { mu_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mu_;
};

/**
 * Annotated std::unique_lock over a Mutex: relockable (the analysis
 * tracks manual unlock()/lock() pairs) and usable with CondVar.
 * Constructed locked.
 */
class IVE_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &mu) IVE_ACQUIRE(mu) : lk_(mu.mu_)
    {
    }
    ~UniqueLock() IVE_RELEASE() = default;

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

    void lock() IVE_ACQUIRE() { lk_.lock(); }
    void unlock() IVE_RELEASE() { lk_.unlock(); }

  private:
    friend class CondVar;
    std::unique_lock<std::mutex> lk_;
};

/**
 * Condition variable over UniqueLock. Wait predicates run with the
 * lock held; start them with `mu_.assertHeld();` so the analysis
 * knows (see Mutex::assertHeld).
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

    template <class Pred>
    void
    wait(UniqueLock &lk, Pred pred)
    {
        cv_.wait(lk.lk_, std::move(pred));
    }

    template <class Clock, class Duration, class Pred>
    bool
    wait_until(UniqueLock &lk,
               const std::chrono::time_point<Clock, Duration> &deadline,
               Pred pred)
    {
        return cv_.wait_until(lk.lk_, deadline, std::move(pred));
    }

  private:
    std::condition_variable cv_;
};

} // namespace ive

#endif // IVE_COMMON_ANNOTATIONS_HH
