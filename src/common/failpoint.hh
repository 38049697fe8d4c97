/**
 * @file
 * Deterministic fault injection: named failpoints armed by env or API.
 *
 * A failpoint is a named site in the serving stack where a test (or a
 * chaos recipe) can inject a failure — an error, a delay, a hang, a
 * forced queue rejection, a corrupted byte. Sites are compiled in
 * always; a *disarmed* failpoint costs one relaxed atomic load and a
 * never-taken branch, so production builds carry the sites for free.
 * Arming happens either programmatically
 *
 *     fail::point("shard.answer.error")
 *         .arm(fail::Trigger::nth(2).withScope(1));
 *
 * or through the IVE_FAILPOINTS environment variable, parsed on first
 * registry use (and re-appliable via fail::armFromEnv()):
 *
 *     IVE_FAILPOINTS="shard.answer.delay=every:3,arg=5;\
 *                     shard.answer.error=nth:2,at=1"
 *
 * Grammar:  spec    := entry (';' entry)*
 *           entry   := name '=' trigger
 *           trigger := mode (',' opt)*
 *           mode    := 'off' | 'always' | 'nth:'N | 'every:'N
 *           opt     := 'arg='N | 'limit='N | 'at='N
 *
 *   nth:N      fires exactly on the N-th matching evaluation (1-based).
 *   every:N    fires on evaluations N, 2N, 3N, ...
 *   arg=N      site-defined payload (delay milliseconds, hang cap,
 *              corruption offset); hit().arg delivers it.
 *   limit=N    stop firing after N fires (the hit counter keeps
 *              counting, so nth/every phases stay stable).
 *   at=N       only evaluations whose scope matches N (e.g. a shard
 *              index) count or fire; others pass through untouched —
 *              this is what makes "fail exactly shard 2" deterministic
 *              under a concurrent broadcast.
 *
 * Every trigger is a pure function of the matching evaluation
 * sequence, so failure tests replay identically. Thread safety: the
 * armed path is fully mutex-guarded (hit counters under one lock), so
 * concurrent evaluations are TSan-clean and the *number* of fires is
 * deterministic; which thread observes them depends on scheduling
 * unless at= pins the scope. Every fire is recorded in the obs
 * registry as ive_faults_injected_total{point="<name>"}.
 *
 * The canonical sites (README "Robustness" keeps the catalog):
 *
 *   shard.answer.delay      sleep arg ms in ShardCoordinator's
 *                           replica call
 *   shard.answer.error      throw ive::Error from that replica call
 *   shard.answer.hang       block that replica call until the point is
 *                           disarmed (cap: arg ms, default 2000)
 *   dispatch.queue.reject   force ShardDispatcher::submit to shed as
 *                           if the queue hit its high-water mark
 *   serialize.response.corrupt  flip one byte of a serialized Response
 *   net.read.stall          event loop skips a connection's reads for
 *                           arg ms (slowloris/deadline drills)
 *   net.write.short         cap one socket send() to arg bytes
 *                           (exercises the partial-write path)
 *   net.conn.reset          close the connection when a frame arrives
 */

#ifndef IVE_COMMON_FAILPOINT_HH
#define IVE_COMMON_FAILPOINT_HH

#include <atomic>
#include <string>
#include <vector>

#include "common/annotations.hh"
#include "common/types.hh"

namespace ive {
namespace obs {
class Counter; // metrics.hh; kept out of this header's include graph.
}

namespace fail {

/** Scope wildcard: evaluation matches any at= filter. */
inline constexpr u64 kAnyScope = ~u64{0};

/** Result of one evaluation: whether to inject, plus the site payload. */
struct Hit
{
    bool fire = false;
    u64 arg = 0;

    explicit operator bool() const { return fire; }
};

/** When an armed failpoint fires (see file comment for the grammar). */
struct Trigger
{
    enum class Mode : u8
    {
        Off,
        Always,
        Nth,
        Every,
    };

    Mode mode = Mode::Off;
    u64 n = 1;          ///< Period / index for Nth and Every.
    u64 arg = 0;        ///< Site-defined payload.
    u64 limit = 0;      ///< Max fires; 0 = unlimited.
    u64 at = kAnyScope; ///< Scope filter; kAnyScope = match all.

    static Trigger
    always()
    {
        Trigger t;
        t.mode = Mode::Always;
        return t;
    }

    static Trigger
    nth(u64 k)
    {
        Trigger t;
        t.mode = Mode::Nth;
        t.n = k;
        return t;
    }

    static Trigger
    every(u64 k)
    {
        Trigger t;
        t.mode = Mode::Every;
        t.n = k;
        return t;
    }

    Trigger
    withArg(u64 v) const
    {
        Trigger t = *this;
        t.arg = v;
        return t;
    }

    Trigger
    withLimit(u64 v) const
    {
        Trigger t = *this;
        t.limit = v;
        return t;
    }

    Trigger
    withScope(u64 v) const
    {
        Trigger t = *this;
        t.at = v;
        return t;
    }
};

/** One named injection site. Obtain through fail::point(); stable
 *  address for function-local-static caching at the site. */
class Failpoint
{
  public:
    explicit Failpoint(std::string name);
    Failpoint(const Failpoint &) = delete;
    Failpoint &operator=(const Failpoint &) = delete;

    const std::string &name() const { return name_; }

    /**
     * The site call. Disarmed: one relaxed load, returns no-fire.
     * Armed: counts the evaluation (scope permitting), applies the
     * trigger, and returns whether to inject plus the payload.
     */
    Hit
    evaluate(u64 scope = kAnyScope)
    {
        if (!armed_.load(std::memory_order_relaxed))
            return {};
        return evaluateArmed(scope);
    }

    /** Arms (or re-arms) the point; resets hit/fire counters so
     *  trigger sequences replay exactly. */
    void arm(const Trigger &trigger) IVE_EXCLUDES(mu_);

    /** Disarms and wakes anything blocked in blockWhileArmed(). */
    void disarm() IVE_EXCLUDES(mu_);

    bool armed() const { return armed_.load(std::memory_order_relaxed); }

    /**
     * Hang-site helper: blocks until the point is disarmed, but never
     * longer than cap_ms (a hang that outlives its test must not wedge
     * the process — coordinator watchdogs join on destruction).
     */
    void blockWhileArmed(u64 cap_ms) IVE_EXCLUDES(mu_);

    /** Matching evaluations since arm() (diagnostics/tests). */
    u64 hits() const IVE_EXCLUDES(mu_);
    /** Fires since arm() (diagnostics/tests). */
    u64 fires() const IVE_EXCLUDES(mu_);

  private:
    Hit evaluateArmed(u64 scope) IVE_EXCLUDES(mu_);

    const std::string name_;
    /** Fast-path gate; all other state lives behind mu_. */
    std::atomic<bool> armed_{false};
    mutable Mutex mu_;
    CondVar disarmCv_; ///< Signaled by disarm() for hang sites.
    Trigger trig_ IVE_GUARDED_BY(mu_);
    u64 hits_ IVE_GUARDED_BY(mu_) = 0;
    u64 fires_ IVE_GUARDED_BY(mu_) = 0;
    obs::Counter &injected_; ///< ive_faults_injected_total{point=...}.
};

/**
 * The process-wide failpoint for `name`; created on first use. The
 * first registry access also applies IVE_FAILPOINTS from the
 * environment, so env-armed recipes need no code hook.
 */
Failpoint &point(const std::string &name);

/**
 * Parses and applies an IVE_FAILPOINTS-grammar spec. Throws
 * std::invalid_argument naming the offending token on a malformed
 * spec; a valid spec arms every named point (mode `off` disarms).
 */
void armFromSpec(const std::string &spec);

/** Applies the current IVE_FAILPOINTS env value (no-op when unset). */
void armFromEnv();

/** Disarms every registered failpoint (test teardown). */
void disarmAll();

/** Names of currently armed points, sorted (diagnostics/tests). */
std::vector<std::string> armedPoints();

} // namespace fail
} // namespace ive

#endif // IVE_COMMON_FAILPOINT_HH
