/**
 * @file
 * Process-wide serving telemetry: counters, gauges, log-bucketed
 * latency histograms, and a named registry with Prometheus-text and
 * JSON exposition.
 *
 * Design constraints (this module sits *below* common so that the
 * thread pool itself can be instrumented):
 *
 *   - Recording is wait-free: one relaxed fetch_add for counters and
 *     gauges, three for a histogram sample. No locks, no allocation,
 *     no syscalls on the record path, so instrumented hot loops stay
 *     hot and responses stay byte-identical at every thread count
 *     (telemetry never feeds back into computation).
 *   - Metric handles are looked up by name once (mutex-guarded map,
 *     stable addresses) and cached by the instrumented site; steady
 *     state touches only the atomics.
 *   - Snapshots and renders may tear across metrics while traffic is
 *     in flight — by design, same policy as ServerCounters::snapshot.
 *
 * Histograms are log-bucketed with 2^kSubBits sub-buckets per octave
 * (HdrHistogram-style): values below 2^(kSubBits+1) map to exact
 * unit-width buckets, larger values to buckets of relative width
 * 2^-kSubBits (~3.1% at kSubBits = 5). percentile() returns the upper
 * bound of the bucket holding the nearest-rank sample, so the true
 * percentile p satisfies  p <= percentile(q) <= p * (1 + 2^-kSubBits)
 * (exact for values below 2^(kSubBits+1)); test_obs pins this against
 * a reference sort.
 *
 * Naming: metrics use Prometheus conventions (ive_ prefix, _total for
 * counters, unit suffixes). A name may carry one fixed label set in
 * curly braces — e.g. ive_stage_latency_ns{stage="expand"} — which the
 * Prometheus renderer folds into the sample lines so all stages share
 * one metric family. The canonical names live in obs::names so the
 * instrumented sites, the benches and the tests cannot drift apart.
 */

#ifndef IVE_OBS_METRICS_HH
#define IVE_OBS_METRICS_HH

#include <atomic>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hh"
#include "common/types.hh"

namespace ive {
namespace obs {

/** Monotonic wall clock in nanoseconds — the one sanctioned raw clock
 *  read of the library (scripts/lint.py raw-chrono); everything that
 *  times work goes through here or through StageSpan (trace.hh). */
u64 nowNs();

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(u64 n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    u64 value() const { return v_.load(std::memory_order_relaxed); }

    /** Test/bench hook; not linearizable against concurrent add(). */
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<u64> v_{0};
};

/** Instantaneous level (queue depths, pool occupancy). */
class Gauge
{
  public:
    void set(i64 v) { v_.store(v, std::memory_order_relaxed); }

    void
    add(i64 d)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }

    i64 value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<i64> v_{0};
};

/** Copyable point-in-time view of a Histogram. */
struct HistogramSnapshot
{
    u64 count = 0;
    u64 sum = 0;
    std::vector<u64> buckets; ///< One count per bucket index.

    /**
     * Nearest-rank percentile estimate for q in (0, 1]: the upper
     * bound of the bucket containing sample ceil(q * count) in sorted
     * order. 0 when the histogram is empty.
     */
    u64 percentile(double q) const;

    /** sum / count (0 when empty). */
    double mean() const { return count ? double(sum) / double(count) : 0.0; }
};

/**
 * Lock-free log-bucketed histogram. record() is three relaxed
 * fetch_adds; all aggregation happens at snapshot time.
 */
class Histogram
{
  public:
    /** Sub-bucket resolution: 2^kSubBits buckets per octave. */
    static constexpr int kSubBits = 5;
    static constexpr int kSubBuckets = 1 << kSubBits;
    /** Values < 2 * kSubBuckets are exact; octaves kSubBits+1 .. 63
     *  each contribute kSubBuckets buckets. */
    static constexpr int kNumBuckets =
        2 * kSubBuckets + (63 - kSubBits) * kSubBuckets;

    Histogram() = default;
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Bucket index of value v (total order preserved). */
    static int
    bucketFor(u64 v)
    {
        if (v < u64{2} * kSubBuckets)
            return static_cast<int>(v);
        int e = 63 - std::countl_zero(v);
        int sub = static_cast<int>((v >> (e - kSubBits)) &
                                   (kSubBuckets - 1));
        return 2 * kSubBuckets + (e - kSubBits - 1) * kSubBuckets + sub;
    }

    /** Smallest value mapping to bucket i. */
    static u64
    bucketLowerBound(int i)
    {
        if (i < 2 * kSubBuckets)
            return static_cast<u64>(i);
        int off = i - 2 * kSubBuckets;
        int e = kSubBits + 1 + off / kSubBuckets;
        int sub = off % kSubBuckets;
        return static_cast<u64>(kSubBuckets + sub) << (e - kSubBits);
    }

    /** Largest value mapping to bucket i. */
    static u64
    bucketUpperBound(int i)
    {
        return i + 1 < kNumBuckets ? bucketLowerBound(i + 1) - 1
                                   : ~u64{0};
    }

    void
    record(u64 v)
    {
        buckets_[static_cast<size_t>(bucketFor(v))].fetch_add(
            1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    HistogramSnapshot snapshot() const;

    /** Test/bench hook; not linearizable against concurrent record(). */
    void reset();

  private:
    std::atomic<u64> count_{0};
    std::atomic<u64> sum_{0};
    std::atomic<u64> buckets_[kNumBuckets]{};
};

/**
 * Named metric registry. counter()/gauge()/histogram() create on first
 * use and return the same stable reference afterwards (a name re-used
 * with a different kind throws std::logic_error; the first non-empty
 * help string is kept). render*() walk every
 * registered metric, so one call reports op counts, traffic bytes and
 * stage latencies together.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter &counter(const std::string &name,
                     const std::string &help = "");
    Gauge &gauge(const std::string &name, const std::string &help = "");
    Histogram &histogram(const std::string &name,
                         const std::string &help = "");

    /**
     * Prometheus text exposition: HELP/TYPE per metric family (label
     * variants of one base name share a family), counter/gauge sample
     * lines, and histogram families as cumulative _bucket{le=...}
     * series over the *occupied* buckets plus +Inf, _sum and _count.
     * Deterministic: families and series render in name order.
     */
    std::string renderPrometheus() const;

    /**
     * JSON snapshot: {"counters": {...}, "gauges": {...},
     * "histograms": {name: {count, sum, p50, p95, p99}}}, keys in
     * name order.
     */
    std::string renderJson() const;

    /** Resets every registered metric (test/bench hook). */
    void resetAll();

    /**
     * The process-wide registry every serving layer records into.
     * Intentionally leaked: worker threads (global ThreadPool) may
     * record during static destruction.
     */
    static Registry &global();

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Entry
    {
        Kind kind;
        std::string help;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &find(const std::string &name, Kind kind,
                const std::string &help) IVE_EXCLUDES(mu_);

    mutable Mutex mu_;
    /** Ordered by full name so renders are deterministic. */
    std::map<std::string, Entry> entries_ IVE_GUARDED_BY(mu_);
};

/** Canonical metric names (single source for sites, benches, tests). */
namespace names {

// Per-query pipeline stages (pir/server.cc, pir/session.cc). The
// expand stage includes fused selector assembly when expandAndSelect
// builds selectors inline; "selectors" covers standalone
// buildSelectors calls.
inline constexpr const char *kStageExpand =
    "ive_stage_latency_ns{stage=\"expand\"}";
inline constexpr const char *kStageSelectors =
    "ive_stage_latency_ns{stage=\"selectors\"}";
inline constexpr const char *kStageRowsel =
    "ive_stage_latency_ns{stage=\"rowsel\"}";
inline constexpr const char *kStageFold =
    "ive_stage_latency_ns{stage=\"fold\"}";
inline constexpr const char *kStageSerialize =
    "ive_stage_latency_ns{stage=\"serialize\"}";
inline constexpr const char *kStageAnswer =
    "ive_stage_latency_ns{stage=\"answer\"}";

// Pipeline op totals (dual-written with the per-server
// ServerCounters, which remain the per-instance view).
inline constexpr const char *kOpsSubs =
    "ive_server_ops_total{op=\"subs\"}";
inline constexpr const char *kOpsExternalProduct =
    "ive_server_ops_total{op=\"external_product\"}";
inline constexpr const char *kOpsPlainMulAcc =
    "ive_server_ops_total{op=\"plain_mul_acc\"}";

// Bytes-only session traffic (pir/session.cc).
inline constexpr const char *kSessionQueries =
    "ive_session_queries_total";
inline constexpr const char *kSessionRequestBytes =
    "ive_session_request_bytes_total";
inline constexpr const char *kSessionResponseBytes =
    "ive_session_response_bytes_total";

// Thread pool (common/thread_pool.cc).
inline constexpr const char *kPoolThreads = "ive_pool_threads";
inline constexpr const char *kPoolActiveWorkers =
    "ive_pool_active_workers";
inline constexpr const char *kPoolTasks = "ive_pool_tasks_total";
inline constexpr const char *kPoolBatches = "ive_pool_batches_total";
inline constexpr const char *kPoolInline =
    "ive_pool_inline_batches_total";
inline constexpr const char *kPoolBusyNs = "ive_pool_busy_ns_total";
inline constexpr const char *kPoolTaskNs = "ive_pool_task_ns";

// Sharded serving (shard/coordinator.cc).
inline constexpr const char *kShardQueries = "ive_shard_queries_total";
inline constexpr const char *kShardBroadcastBytes =
    "ive_shard_broadcast_bytes_total";
inline constexpr const char *kShardGatherBytes =
    "ive_shard_gather_bytes_total";

// Waiting-window dispatcher (shard/dispatcher.cc).
inline constexpr const char *kDispatchSubmitted =
    "ive_dispatch_submitted_total";
inline constexpr const char *kDispatchCompleted =
    "ive_dispatch_completed_total";
inline constexpr const char *kDispatchBatches =
    "ive_dispatch_batches_total";
inline constexpr const char *kDispatchQueueDepth =
    "ive_dispatch_queue_depth";
inline constexpr const char *kDispatchWindowWaitNs =
    "ive_dispatch_window_wait_ns";
inline constexpr const char *kDispatchBatchSize =
    "ive_dispatch_batch_size";

// Robustness layer (common/failpoint.cc, shard/coordinator.cc,
// shard/dispatcher.cc). Faults carry the injection-site name as a
// label; deadline misses carry the layer that timed out.
inline constexpr const char *kFaultsInjectedFamily =
    "ive_faults_injected_total";
inline std::string
faultsInjected(const std::string &failpoint)
{
    return std::string(kFaultsInjectedFamily) + "{point=\"" +
           failpoint + "\"}";
}
inline constexpr const char *kShardRetries = "ive_shard_retries_total";
inline constexpr const char *kFailovers = "ive_failovers_total";
inline constexpr const char *kQueriesShed = "ive_queries_shed_total";
inline constexpr const char *kDeadlineMissShard =
    "ive_deadline_misses_total{layer=\"shard\"}";
inline constexpr const char *kDeadlineMissDispatch =
    "ive_deadline_misses_total{layer=\"dispatch\"}";
inline constexpr const char *kRetryLatencyNs =
    "ive_shard_retry_latency_ns";

// Network front-end (src/net/): session registry occupancy and
// connection/frame traffic. Directions and close reasons follow the
// labels-in-name convention above.
inline constexpr const char *kSessionsActive = "ive_sessions_active";
inline constexpr const char *kSessionsEvicted =
    "ive_sessions_evicted_total";
inline constexpr const char *kSessionsRegistered =
    "ive_sessions_registered_total";
inline constexpr const char *kSessionsBytes = "ive_sessions_bytes";
inline constexpr const char *kNetConnections = "ive_net_connections";
inline constexpr const char *kNetAccepted = "ive_net_accepted_total";
inline constexpr const char *kNetRejected = "ive_net_rejected_total";
inline constexpr const char *kNetFramesIn =
    "ive_net_frames_total{dir=\"in\"}";
inline constexpr const char *kNetFramesOut =
    "ive_net_frames_total{dir=\"out\"}";
inline constexpr const char *kNetBytesIn =
    "ive_net_bytes_total{dir=\"in\"}";
inline constexpr const char *kNetBytesOut =
    "ive_net_bytes_total{dir=\"out\"}";
inline constexpr const char *kNetErrorFrames =
    "ive_net_error_frames_total";
inline constexpr const char *kNetDeadlineCloses =
    "ive_net_deadline_closes_total";

} // namespace names

} // namespace obs
} // namespace ive

#endif // IVE_OBS_METRICS_HH
