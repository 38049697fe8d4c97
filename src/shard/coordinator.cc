#include "shard/coordinator.hh"

#include <algorithm>
#include <chrono>
#include <future>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/trace.hh"

namespace ive {

namespace {

/** Coordinator traffic and failure handling: the registry is the
 *  only store of these tallies. */
struct CoordMetrics
{
    obs::Counter &queries;
    obs::Counter &broadcastBytes;
    obs::Counter &gatherBytes;
    obs::Counter &retries;
    obs::Counter &failovers;
    obs::Counter &deadlineMisses;
    obs::Histogram &retryLatencyNs;
};

CoordMetrics &
coordMetrics()
{
    namespace n = obs::names;
    obs::Registry &r = obs::Registry::global();
    static CoordMetrics m{
        r.counter(n::kShardQueries,
                  "queries folded by shard coordinators"),
        r.counter(n::kShardBroadcastBytes,
                  "query bytes broadcast to shards"),
        r.counter(n::kShardGatherBytes,
                  "partial-response bytes gathered from shards"),
        r.counter(n::kShardRetries, "re-attempted shard replica calls"),
        r.counter(n::kFailovers,
                  "shard retries that switched to another replica"),
        r.counter(n::kDeadlineMissShard,
                  "shard replica calls cut off by the per-call deadline"),
        r.histogram(n::kRetryLatencyNs,
                    "first-attempt-to-success latency of shard calls "
                    "that needed at least one retry"),
    };
    return m;
}

/** Default cap on an injected hang: a hang that outlives its test
 *  must release on its own so watchdog joins stay bounded. */
constexpr u64 kHangCapMs = 2000;

/**
 * One replica call: the shard.answer.* failpoints, then the engine's
 * answerQuery. The failpoints are scoped by slice index so a recipe
 * can fail exactly one slice of a broadcast (at=N in the spec), and
 * sit in front of the slice pipeline: an injected fault costs no
 * compute.
 */
std::vector<u8>
answerReplica(const PirServer &engine, std::span<const u8> query_blob)
{
    static fail::Failpoint &delay = fail::point("shard.answer.delay");
    static fail::Failpoint &error = fail::point("shard.answer.error");
    static fail::Failpoint &hang = fail::point("shard.answer.hang");

    const u32 slice = engine.shard();
    if (fail::Hit h = delay.evaluate(slice))
        std::this_thread::sleep_for(
            std::chrono::milliseconds(h.arg ? h.arg : 10));
    if (fail::Hit h = hang.evaluate(slice))
        hang.blockWhileArmed(h.arg ? h.arg : kHangCapMs);
    if (error.evaluate(slice))
        throw Error(strprintf(
            "injected fault: shard.answer.error (shard %u)", slice));
    return answerQuery(engine, query_blob);
}

} // namespace

double
backoffDelaySec(const FailoverConfig &cfg, u32 retry)
{
    double d = cfg.backoffBaseSec;
    for (u32 i = 0; i < retry && d < cfg.backoffCapSec; ++i)
        d *= 2.0;
    return std::min(d, cfg.backoffCapSec);
}

ShardCoordinator::ShardCoordinator(std::span<const u8> params_blob,
                                   u32 num_shards,
                                   const FailoverConfig &fo)
    : ShardCoordinator(deserializeParams(params_blob), num_shards, fo)
{
}

ShardCoordinator::ShardCoordinator(const PirParams &params,
                                   u32 num_shards,
                                   const FailoverConfig &fo)
    : params_(params), ctx_(params_.he), db_(ctx_, params_),
      numShards_(num_shards), fo_(fo)
{
    checkShardTopology(params_, 0, num_shards);
    if (fo_.replicas == 0)
        throw std::invalid_argument(
            "ShardCoordinator: replicas must be >= 1");
}

ShardCoordinator::~ShardCoordinator()
{
    // Deadline-abandoned replica calls are joined, not detached: the
    // hang failpoint self-releases after its cap and the delay
    // failpoint's sleep is finite, so this wait is bounded.
    std::vector<std::thread> abandoned;
    {
        LockGuard lk(watchdogMu_);
        abandoned.swap(abandoned_);
    }
    for (std::thread &t : abandoned)
        t.join();
}

void
ShardCoordinator::ingestKeys(std::span<const u8> key_blob)
{
    // One decode and one copy of the keys, shared by every engine.
    auto keys = std::make_shared<const PirPublicKeys>(
        deserializePublicKeys(ctx_, params_, key_blob));
    std::vector<std::shared_ptr<const PirServer>> engines;
    engines.reserve(static_cast<size_t>(numShards_) * fo_.replicas);
    for (u32 s = 0; s < numShards_; ++s)
        for (u32 r = 0; r < fo_.replicas; ++r)
            engines.push_back(std::make_shared<const PirServer>(
                ctx_, params_, &db_, keys, s, numShards_));
    engines_ = std::move(engines);
}

std::vector<u8>
ShardCoordinator::callReplica(
    const std::shared_ptr<const PirServer> &engine,
    std::span<const u8> query_blob)
{
    if (fo_.shardDeadlineSec <= 0.0)
        return answerReplica(*engine, query_blob);

    // Watchdog path: run the call on its own thread and wait no longer
    // than the deadline. On expiry the call is abandoned — its thread
    // is parked for the destructor to join — and the slice moves on to
    // the next replica. The task owns a copy of the blob and a
    // reference to the engine, so an abandoned call never reads freed
    // caller memory or an engine a later ingestKeys replaced.
    auto blob = std::make_shared<const std::vector<u8>>(
        query_blob.begin(), query_blob.end());
    std::packaged_task<std::vector<u8>()> task(
        [engine, blob] { return answerReplica(*engine, *blob); });
    std::future<std::vector<u8>> fut = task.get_future();
    std::thread runner(std::move(task));
    if (fut.wait_for(std::chrono::duration<double>(
            fo_.shardDeadlineSec)) == std::future_status::ready) {
        runner.join();
        return fut.get(); // Value, or the call's own exception.
    }
    {
        LockGuard lk(watchdogMu_);
        abandoned_.push_back(std::move(runner));
    }
    coordMetrics().deadlineMisses.add(1);
    throw DeadlineExceeded(strprintf(
        "shard %u replica call exceeded its %.3fs deadline",
        engine->shard(), fo_.shardDeadlineSec));
}

std::vector<u8>
ShardCoordinator::answerSlice(u32 slice,
                              std::span<const u8> query_blob)
{
    if (engines_.empty())
        throw std::logic_error(
            "ShardCoordinator: no client keys ingested yet");
    ive_assert(slice < numShards_);
    CoordMetrics &cm = coordMetrics();
    const u32 attempts = 2 * fo_.replicas;
    const u64 t0 = obs::nowNs();
    for (u32 a = 0;; ++a) {
        const u32 r = a % fo_.replicas;
        try {
            std::vector<u8> partial = callReplica(
                engines_[static_cast<size_t>(slice) * fo_.replicas + r],
                query_blob);
            if (a > 0)
                cm.retryLatencyNs.record(obs::nowNs() - t0);
            return partial;
        } catch (const Error &e) {
            // Typed serving failures (injected faults, deadline
            // expiry, checked-build contract violations) are
            // retryable: every replica computes the identical partial,
            // so any other live replica can stand in. API misuse
            // (std::logic_error) propagates immediately.
            if (a + 1 >= attempts)
                throw ShardUnavailable(strprintf(
                    "shard %u unavailable: %u replica(s), %u attempts, "
                    "last error: %s",
                    slice, fo_.replicas, attempts, e.what()));
            cm.retries.add(1);
            if ((a + 1) % fo_.replicas != r)
                cm.failovers.add(1);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoffDelaySec(fo_, a)));
        }
    }
}

std::vector<u8>
ShardCoordinator::answer(std::span<const u8> query_blob)
{
    obs::Tracer::QueryTrace trace("shard_answer");
    // Parse once up front: a malformed query must reach no shard (and
    // must surface as SerializeError, never burn the retry budget).
    PirQuery query = deserializeQuery(ctx_, query_blob);

    // Broadcast to EVERY slice: a selective send would leak which
    // slice holds the requested record. Slices are independent; fan
    // out on the pool (their internal parallelFor nests inline).
    // Failover happens inside each slice's gather, so one slow or
    // broken replica never blocks the other slices' progress.
    std::vector<std::vector<u8>> partials(numShards_);
    parallelFor(0, numShards_, [&](u64 s) {
        partials[s] = answerSlice(static_cast<u32>(s), query_blob);
    });
    coordMetrics().broadcastBytes.add(query_blob.size() * numShards_);
    return finishFold(query, partials);
}

std::vector<u8>
ShardCoordinator::foldPartials(
    std::span<const u8> query_blob,
    const std::vector<std::vector<u8>> &partial_blobs)
{
    PirQuery query = deserializeQuery(ctx_, query_blob);
    return finishFold(query, partial_blobs);
}

std::vector<u8>
ShardCoordinator::finishFold(
    const PirQuery &query,
    const std::vector<std::vector<u8>> &partial_blobs)
{
    if (engines_.empty())
        throw std::logic_error(
            "ShardCoordinator: no client keys ingested yet");
    u32 n = numShards();
    if (partial_blobs.size() != n)
        throw SerializeError(strprintf(
            "gathered %zu partials, deployment has %u shards",
            partial_blobs.size(), n));

    // Decode and order by shard index; the set must be complete (every
    // shard exactly once) and agree on the topology and plane count.
    // A one-slice deployment's slice covers every column, so its shard
    // answers with the complete Response (pir/session.hh answerQuery).
    std::vector<PirPartialResponse> partials(n);
    std::vector<bool> seen(n, false);
    u64 gather_bytes = 0;
    for (const auto &blob : partial_blobs) {
        PirPartialResponse p =
            n == 1 ? PirPartialResponse{0, 1,
                                        deserializeResponse(ctx_, blob)
                                            .planes}
                   : deserializePartialResponse(ctx_, blob);
        if (p.numShards != n)
            throw SerializeError(strprintf(
                "partial claims %u shards, deployment has %u",
                p.numShards, n));
        if (p.planes.size() != static_cast<u64>(params_.planes))
            throw SerializeError(strprintf(
                "partial from shard %u has %zu planes, params say %d",
                p.shard, p.planes.size(), params_.planes));
        u32 idx = p.shard;
        if (seen[idx])
            throw SerializeError(
                strprintf("duplicate partial for shard %u", idx));
        seen[idx] = true;
        gather_bytes += blob.size();
        partials[idx] = std::move(p);
    }
    coordMetrics().gatherBytes.add(gather_bytes);

    PirResponse resp;
    if (n == 1) {
        // Degenerate deployment: nothing is left to fold.
        resp.planes = std::move(partials[0].planes);
    } else {
        // Final log2(n) tournament levels: the same folds, on the same
        // operands, in the same order as the tail of the monolithic
        // ColTor, so the result is byte-identical to it. Neither
        // expandAndSelect nor colTor reads the engine's slice, so
        // slice 0's engine finishes the fold.
        const PirServer &srv = *engines_.front();
        int sel_offset = params_.d - log2Exact(n);
        // Only the final levels' selectors are needed here; their
        // assembly overlaps the expansion's last level.
        std::vector<RgswCiphertext> selectors;
        std::vector<BfvCiphertext> leaves =
            srv.expandAndSelect(query, sel_offset, params_.d,
                                selectors);

        // planes (1-2) never fills the pool; run the loop serially so
        // each colTor's internal parallelism engages instead.
        resp.planes.resize(params_.planes);
        for (u64 pl = 0; pl < static_cast<u64>(params_.planes); ++pl) {
            std::vector<BfvCiphertext> entries(n);
            for (u32 s = 0; s < n; ++s)
                entries[s] = partials[s].planes[pl];
            resp.planes[pl] =
                srv.colTor(std::move(entries), selectors, sel_offset);
        }
    }
    coordMetrics().queries.add(1);
    return serializeResponse(ctx_, resp);
}

} // namespace ive
