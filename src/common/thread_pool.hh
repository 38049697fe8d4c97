/**
 * @file
 * Fixed-size worker pool with a deterministic parallel-for.
 *
 * The server pipeline parallelizes over independent units (queries in a
 * batch, plaintext planes, RowSel output columns and their residue
 * planes, RGSW gadget rows, per-residue NTT planes inside one op): each
 * parallelFor index writes only to its own output slot, so results are
 * byte-identical at any thread count. Work is dispatched in contiguous
 * chunks sized by a caller-supplied minimum grain (parallelForChunked),
 * so post-SIMD work items of a few microseconds are not drowned by
 * per-index claim overhead. Nested parallelFor calls run inline on the
 * calling worker, which keeps coarse parallelism (over queries) from
 * deadlocking against fine parallelism (inside one query) while letting
 * the fine level kick in when a single query runs alone.
 */

#ifndef IVE_COMMON_THREAD_POOL_HH
#define IVE_COMMON_THREAD_POOL_HH

#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "common/types.hh"

namespace ive {

class ThreadPool
{
  public:
    /** Spawns num_threads - 1 workers (the caller is the extra lane). */
    explicit ThreadPool(int num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Configured parallelism (>= 1), counting the calling thread. */
    int size() const { return numThreads_; }

    /** Contiguous index range [from, to) handed to a chunked body. */
    using RangeFn = std::function<void(u64, u64)>;

    /**
     * Runs fn(i) for every i in [begin, end) and blocks until all
     * complete. fn must only write state owned by index i. Dispatches
     * through parallelForChunked with min_grain 1, so indices are
     * handed out as contiguous chunks (at most kChunksPerLane per
     * lane), not one atomic claim per index. Runs inline when the pool
     * is size 1, the range is trivial, or the caller is already a pool
     * worker (nested parallelism).
     */
    void parallelFor(u64 begin, u64 end,
                     const std::function<void(u64)> &fn)
        IVE_EXCLUDES(mu_);

    /**
     * Grain-aware chunked parallel-for: fn(from, to) is invoked on
     * disjoint contiguous chunks that exactly cover [begin, end), each
     * chunk at least min_grain indices (so per-task dispatch overhead
     * is amortized over at least min_grain items of work). Chunk
     * boundaries depend only on (range, min_grain, pool size) — never
     * on timing — and chunks are claimed dynamically, so callers whose
     * per-index writes are disjoint get byte-identical results at any
     * thread count. At most size() * kChunksPerLane chunks are formed;
     * a range shorter than 2 * min_grain runs inline as one chunk, as
     * do nested calls from pool workers.
     */
    void parallelForChunked(u64 begin, u64 end, u64 min_grain,
                            const RangeFn &fn) IVE_EXCLUDES(mu_);

    /**
     * Chunks handed to each lane beyond the first: enough dynamic
     * slack to absorb uneven chunk costs without per-index claiming.
     */
    static constexpr u64 kChunksPerLane = 4;

    /** True when the calling thread is one of this pool's workers. */
    static bool onWorkerThread();

    /**
     * Process-wide pool, created on first use with threads from
     * IVE_THREADS (default: hardware concurrency).
     */
    static ThreadPool &global();

    /**
     * Replaces the global pool (joining its workers). Not safe while
     * another thread is inside a parallelFor on the old pool; callers
     * must quiesce their own parallel work first.
     */
    static void setGlobalThreads(int num_threads);

  private:
    struct Batch; ///< One parallelFor invocation's shared state.

    void workerLoop() IVE_EXCLUDES(mu_);

    /** Dispatches fn(i) for i in [0, count) across the pool; the
     *  shared claiming/completion machinery behind both public
     *  parallel-for variants. */
    void runBatch(u64 count, const std::function<void(u64)> &fn)
        IVE_EXCLUDES(mu_);

    int numThreads_;
    std::vector<std::thread> workers_;

    Mutex mu_;
    CondVar wake_; ///< Workers wait for a batch.
    /** Batch being executed, if any. */
    Batch *current_ IVE_GUARDED_BY(mu_) = nullptr;
    /** Bumped per batch to re-wake workers. */
    u64 generation_ IVE_GUARDED_BY(mu_) = 0;
    bool stop_ IVE_GUARDED_BY(mu_) = false;
};

/** parallelFor on the global pool. */
void parallelFor(u64 begin, u64 end, const std::function<void(u64)> &fn);

/** parallelForChunked on the global pool. */
void parallelForChunked(u64 begin, u64 end, u64 min_grain,
                        const ThreadPool::RangeFn &fn);

} // namespace ive

#endif // IVE_COMMON_THREAD_POOL_HH
