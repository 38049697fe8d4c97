#include "shard/dispatcher.hh"

#include <algorithm>
#include <memory>

#include "common/error.hh"
#include "common/failpoint.hh"
#include "common/logging.hh"
#include "obs/trace.hh"

namespace ive {

namespace {

/**
 * Dispatcher telemetry: queue pressure (depth gauge, window-wait
 * histogram), batching efficiency (batch-size histogram), and
 * admission control (shed and deadline-miss counters). The
 * DispatcherStats struct stays the exact per-instance view; these
 * aggregate across dispatchers for render().
 */
struct DispatchMetrics
{
    obs::Counter &submitted;
    obs::Counter &completed;
    obs::Counter &batches;
    obs::Counter &shed;
    obs::Counter &expired;
    obs::Gauge &queueDepth;
    obs::Histogram &windowWaitNs;
    obs::Histogram &batchSize;
};

DispatchMetrics &
dispatchMetrics()
{
    namespace n = obs::names;
    obs::Registry &r = obs::Registry::global();
    static DispatchMetrics m{
        r.counter(n::kDispatchSubmitted, "queries submitted"),
        r.counter(n::kDispatchCompleted,
                  "query completions delivered (success or error)"),
        r.counter(n::kDispatchBatches, "batches dispatched"),
        r.counter(n::kQueriesShed,
                  "queries rejected at admission (Overloaded)"),
        r.counter(n::kDeadlineMissDispatch,
                  "queries whose deadline expired in the queue"),
        r.gauge(n::kDispatchQueueDepth, "queries waiting for a window"),
        r.histogram(n::kDispatchWindowWaitNs,
                    "submit-to-dispatch wait per query"),
        r.histogram(n::kDispatchBatchSize, "queries per batch"),
    };
    return m;
}

} // namespace

ShardDispatcher::ShardDispatcher(const SchedulerConfig &cfg) : cfg_(cfg)
{
    ive_assert(cfg_.maxBatch >= 1);
    ive_assert(cfg_.windowSec >= 0.0);
    ive_assert(cfg_.maxQueue >= 0);
    ive_assert(cfg_.queryDeadlineSec >= 0.0);
    worker_ = std::thread([this] { runLoop(); });
}

ShardDispatcher::~ShardDispatcher()
{
    shutdown();
}

void
ShardDispatcher::shutdown()
{
    std::call_once(shutdownOnce_, [this] {
        {
            LockGuard lk(mu_);
            stop_ = true;
        }
        wake_.notify_all();
        worker_.join();
    });
}

void
ShardDispatcher::submit(std::vector<u8> query_blob, AnswerFn work,
                        CompletionFn done)
{
    static fail::Failpoint &reject = fail::point("dispatch.queue.reject");

    ive_assert(work != nullptr && done != nullptr);
    Pending p;
    p.arrival = Clock::now();
    p.arrivalNs = obs::nowNs();
    if (cfg_.queryDeadlineSec > 0.0)
        p.deadlineNs = p.arrivalNs +
                       static_cast<u64>(cfg_.queryDeadlineSec * 1e9);
    p.blob = std::move(query_blob);
    p.work = std::move(work);
    p.done = std::move(done);

    DispatchMetrics &dm = dispatchMetrics();
    std::exception_ptr rejection;
    {
        LockGuard lk(mu_);
        // stop_ and queue_ change under the same mutex the worker
        // holds while deciding to exit (it only returns once stop_ is
        // set AND the queue is empty), so any submit that wins this
        // lock before shutdown is flushed, and any that loses it is
        // rejected here — a racing submit can never lose its callback.
        if (stop_) {
            ++stats_.rejectedShutdown;
            rejection = std::make_exception_ptr(
                ShutdownError("ShardDispatcher: submit after shutdown"));
        } else if ((cfg_.maxQueue > 0 &&
                    queue_.size() >=
                        static_cast<size_t>(cfg_.maxQueue)) ||
                   reject.evaluate()) {
            ++stats_.shed;
            dm.shed.add(1);
            rejection = std::make_exception_ptr(Overloaded(
                strprintf("ShardDispatcher: queue at high-water mark "
                          "(%zu waiting, maxQueue %d)",
                          queue_.size(), cfg_.maxQueue)));
        } else {
            queue_.push_back(std::move(p));
            ++stats_.submitted;
            dm.queueDepth.set(static_cast<i64>(queue_.size()));
        }
    }
    if (rejection) {
        // Outside the lock: a completion callback may re-enter the
        // dispatcher (or take its own locks) without deadlocking.
        p.done({}, std::move(rejection));
        return;
    }
    dm.submitted.add(1);
    wake_.notify_all();
}

void
ShardDispatcher::drain()
{
    UniqueLock lk(mu_);
    idle_.wait(lk, [this] {
        mu_.assertHeld(); // Predicates run with the lock held.
        return queue_.empty() && !inFlight_;
    });
}

DispatcherStats
ShardDispatcher::stats() const
{
    LockGuard lk(mu_);
    return stats_;
}

void
ShardDispatcher::runLoop()
{
    UniqueLock lk(mu_);
    for (;;) {
        wake_.wait(lk, [this] {
            mu_.assertHeld();
            return stop_ || !queue_.empty();
        });
        if (queue_.empty()) {
            ive_assert(stop_);
            return;
        }

        // The waiting window opened when the batch's first query
        // arrived. If the engines were busy past the window's end
        // (or we are shutting down), the deadline is already in the
        // past and the batch dispatches immediately — the live
        // equivalent of the simulator's max(window_close, server_free).
        auto deadline =
            queue_.front().arrival +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(cfg_.windowSec));
        bool full = wake_.wait_until(lk, deadline, [this] {
            mu_.assertHeld();
            return stop_ ||
                   queue_.size() >=
                       static_cast<size_t>(cfg_.maxBatch);
        });

        // Queries whose own deadline the waiting window consumed are
        // dropped here, at dispatch time, with DeadlineExceeded —
        // serving them late helps nobody and steals batch slots from
        // queries that can still meet theirs.
        size_t take = std::min(queue_.size(),
                               static_cast<size_t>(cfg_.maxBatch));
        const u64 dispatch_ns = obs::nowNs();
        std::vector<Pending> batch;
        std::vector<Pending> lapsed;
        batch.reserve(take);
        for (size_t i = 0; i < take; ++i) {
            Pending p = std::move(queue_.front());
            queue_.pop_front();
            if (p.deadlineNs != 0 && dispatch_ns > p.deadlineNs)
                lapsed.push_back(std::move(p));
            else
                batch.push_back(std::move(p));
        }
        stats_.expired += lapsed.size();
        stats_.completed += lapsed.size();
        inFlight_ = !batch.empty();
        if (!batch.empty()) {
            ++stats_.batches;
            if (full &&
                take == static_cast<size_t>(cfg_.maxBatch))
                ++stats_.fullBatches;
            stats_.maxBatch =
                std::max(stats_.maxBatch, u64{batch.size()});
        }
        DispatchMetrics &dm = dispatchMetrics();
        dm.queueDepth.set(static_cast<i64>(queue_.size()));
        lk.unlock();

        if (!lapsed.empty()) {
            dm.expired.add(lapsed.size());
            dm.completed.add(lapsed.size());
            for (Pending &p : lapsed)
                p.done(
                    {},
                    std::make_exception_ptr(DeadlineExceeded(strprintf(
                        "ShardDispatcher: deadline (%.3f s) expired "
                        "after %.3f s in the waiting window",
                        cfg_.queryDeadlineSec,
                        static_cast<double>(dispatch_ns - p.arrivalNs) /
                            1e9))));
        }

        if (batch.empty()) {
            lk.lock();
            if (queue_.empty() && !inFlight_)
                idle_.notify_all();
            continue;
        }

        dm.batches.add(1);
        dm.batchSize.record(batch.size());
        for (const Pending &p : batch)
            dm.windowWaitNs.record(dispatch_ns >= p.arrivalNs
                                       ? dispatch_ns - p.arrivalNs
                                       : 0);

        // Each thunk runs inside its own error boundary so one bad
        // query cannot fail its batch-mates; the callback fires once,
        // after the boundary.
        for (Pending &p : batch) {
            std::vector<u8> response;
            std::exception_ptr error;
            try {
                response = p.work(p.blob);
                // lint: allow(catch-all) -- delivered intact via the completion callback
            } catch (...) {
                error = std::current_exception();
            }
            p.done(std::move(response), std::move(error));
        }

        dm.completed.add(batch.size());
        lk.lock();
        stats_.completed += batch.size();
        inFlight_ = false;
        if (queue_.empty())
            idle_.notify_all();
    }
}

std::future<std::vector<u8>>
submitFuture(ShardDispatcher &dispatcher, std::vector<u8> query_blob,
             ShardDispatcher::AnswerFn work)
{
    // std::function needs a copyable callable; the promise is shared.
    auto promise = std::make_shared<std::promise<std::vector<u8>>>();
    std::future<std::vector<u8>> fut = promise->get_future();
    dispatcher.submit(std::move(query_blob), std::move(work),
                      [promise](std::vector<u8> response,
                                std::exception_ptr error) {
                          if (error)
                              promise->set_exception(std::move(error));
                          else
                              promise->set_value(std::move(response));
                      });
    return fut;
}

} // namespace ive
