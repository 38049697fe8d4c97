/**
 * @file
 * Live waiting-window dispatcher: the serving queue in front of the
 * engines.
 *
 * This is the system/batch_scheduler policy (paper SV, Fig. 14b) moved
 * from discrete-event simulation onto a real thread: a waiting window
 * opens when the first query of a batch arrives, and the batch is
 * dispatched when the window expires or maxBatch queries have queued,
 * whichever comes first. While the engines are busy the next window
 * effectively closes at completion time, exactly like the simulator's
 * max(window_close, server_free). The same SchedulerConfig (defined
 * here, included by system/batch_scheduler.hh) drives both, so
 * simulated load curves and live behavior stay comparable.
 *
 * Admission control (SchedulerConfig knobs, README "Robustness"):
 *
 *   maxQueue         bounded queue with a high-water mark — a submit
 *                    arriving at the mark is shed immediately with a
 *                    typed ive::Overloaded instead of growing the
 *                    queue without bound (load spikes degrade to
 *                    rejections, not OOM).
 *   queryDeadlineSec per-query deadline inherited through the waiting
 *                    window: a query whose deadline passes while it
 *                    waits is dropped with ive::DeadlineExceeded at
 *                    dispatch time rather than served uselessly late.
 *
 * Every query carries its own work thunk — answerQuery bound to a
 * client's engine in the network front-end (src/net/), a coordinator's
 * answer in tests and benches — and a completion callback:
 * submit(blob, work, done). At dispatch time work(blob) computes the
 * response inside its own error boundary, so one bad query cannot fail
 * its batch-mates, and done(response, error) fires exactly once: on
 * the dispatch thread for accepted work, on the submitting thread for
 * immediate rejections, always outside the dispatcher lock
 * (re-submitting from a callback is safe). Callbacks must not block —
 * they run on the serving path. submitFuture() adapts this to a future
 * for callers that can afford to block on get().
 *
 * submit() is thread-safe and NEVER throws for serving-state reasons:
 * overload, deadline expiry and shutdown all surface as a typed
 * ive::Error through the callback (Overloaded, DeadlineExceeded,
 * ShutdownError), so every submit observes exactly one outcome and a
 * submit racing shutdown can neither hang nor lose its callback.
 * Pipeline errors (e.g. SerializeError for a malformed blob,
 * ShardUnavailable from a dead slice) arrive the same way.
 */

#ifndef IVE_SHARD_DISPATCHER_HH
#define IVE_SHARD_DISPATCHER_HH

#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "common/types.hh"

namespace ive {

/** Waiting-window policy of the live dispatcher and the simulator. */
struct SchedulerConfig
{
    double windowSec = 0.032;
    int maxBatch = 64;

    // Admission control (live ShardDispatcher only; the discrete-event
    // simulator models an unbounded queue and ignores these).
    /**
     * Queue high-water mark: submits arriving while maxQueue queries
     * already wait are shed with a typed ive::Overloaded instead of
     * growing the queue without bound. 0 = unbounded (legacy).
     */
    int maxQueue = 0;
    /**
     * Per-query deadline in seconds, inherited through the waiting
     * window: a query whose deadline passes before its batch
     * dispatches is dropped with ive::DeadlineExceeded rather than
     * served late. 0 = no deadline.
     */
    double queryDeadlineSec = 0.0;
};

/** Cumulative dispatcher tallies (under one lock with the queue). */
struct DispatcherStats
{
    u64 submitted = 0;  ///< Accepted into the queue.
    u64 completed = 0;  ///< Completions delivered, success or error.
    u64 batches = 0;
    u64 fullBatches = 0; ///< Dispatched because maxBatch was reached.
    u64 maxBatch = 0;    ///< Largest batch dispatched so far.
    u64 shed = 0;        ///< Rejected with Overloaded at submit.
    u64 expired = 0;     ///< Dropped with DeadlineExceeded at dispatch.
    u64 rejectedShutdown = 0; ///< Rejected with ShutdownError.
};

class ShardDispatcher
{
  public:
    /** Computes one query's response blob (throws a typed ive::Error
     *  on failure); runs on the dispatch thread. */
    using AnswerFn =
        std::function<std::vector<u8>(const std::vector<u8> &)>;
    /** Exactly-once result delivery: response on success, non-null
     *  exception_ptr (a typed ive::Error) on failure. */
    using CompletionFn =
        std::function<void(std::vector<u8> response,
                           std::exception_ptr error)>;

    /** Starts the dispatch thread. */
    explicit ShardDispatcher(const SchedulerConfig &cfg);

    /** Flushes the queue, then joins the dispatch thread. */
    ~ShardDispatcher();

    /**
     * Stops accepting work, flushes already-queued queries, and joins
     * the dispatch thread. Idempotent and safe to race with submit():
     * a submit that loses the race is rejected with ShutdownError, one
     * that wins is flushed — either way its callback fires. The
     * destructor calls this if it has not been called already.
     */
    void shutdown() IVE_EXCLUDES(mu_);

    ShardDispatcher(const ShardDispatcher &) = delete;
    ShardDispatcher &operator=(const ShardDispatcher &) = delete;

    /**
     * Enqueues one query: it rides the waiting window and admission
     * control, then work(blob) computes its response on the dispatch
     * thread and done delivers it. Rejections (Overloaded at the
     * high-water mark, ShutdownError when stopping) and window-expired
     * deadlines (DeadlineExceeded) arrive through done as well.
     */
    void submit(std::vector<u8> query_blob, AnswerFn work,
                CompletionFn done) IVE_EXCLUDES(mu_);

    /** Blocks until every submitted query has been dispatched. */
    void drain() IVE_EXCLUDES(mu_);

    DispatcherStats stats() const IVE_EXCLUDES(mu_);

  private:
    using Clock = std::chrono::steady_clock;

    struct Pending
    {
        Clock::time_point arrival;
        u64 arrivalNs = 0;  ///< obs::nowNs() at submit, for telemetry.
        u64 deadlineNs = 0; ///< arrivalNs + queryDeadlineSec; 0 = none.
        std::vector<u8> blob;
        AnswerFn work;
        CompletionFn done;
    };

    void runLoop() IVE_EXCLUDES(mu_);

    SchedulerConfig cfg_;

    mutable Mutex mu_;
    CondVar wake_; ///< Queue grew or stop requested.
    CondVar idle_; ///< Queue drained, nothing in flight.
    std::deque<Pending> queue_ IVE_GUARDED_BY(mu_);
    DispatcherStats stats_ IVE_GUARDED_BY(mu_);
    bool inFlight_ IVE_GUARDED_BY(mu_) = false;
    bool stop_ IVE_GUARDED_BY(mu_) = false;
    std::once_flag shutdownOnce_; ///< One joiner, even when racing.
    std::thread worker_;
};

/**
 * Future adapter over ShardDispatcher::submit for tests and batch
 * drivers: the future yields the response blob or rethrows the typed
 * ive::Error the callback would have carried.
 */
std::future<std::vector<u8>>
submitFuture(ShardDispatcher &dispatcher, std::vector<u8> query_blob,
             ShardDispatcher::AnswerFn work);

} // namespace ive

#endif // IVE_SHARD_DISPATCHER_HH
