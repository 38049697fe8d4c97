/**
 * @file
 * Partial-fold coordinator for sharded PIR serving (paper SV).
 *
 * The coordinator owns one HeContext and one Database. The record
 * axis is split into num_shards column-aligned slices, each served by
 * a *replica group* of R PirServer engines over that one store
 * (PirServer's shard / num_shards). Per query the coordinator:
 *
 *   1. broadcasts the query blob to EVERY slice — a selective send
 *      would reveal which slice holds the requested record, so all
 *      slices always do the same work;
 *   2. gathers one PartialResponse blob per slice (answerSlice),
 *      retrying across the slice's replicas on error or per-shard
 *      deadline expiry with capped exponential backoff (see
 *      FailoverConfig);
 *   3. finishes the final log2(num_shards) tournament levels on its
 *      own whole-database fold engine and serializes a regular
 *      Response blob.
 *
 * Every replica of a slice reads the same store with the same keys and
 * runs the same deterministic pipeline, so every replica computes the
 * byte-identical PartialResponse — failover changes *which engine*
 * answered, never *what* was answered. Responses therefore stay
 * byte-identical to the monolithic server under any injected fault
 * that still yields a quorum (one live replica per slice). When a
 * slice's whole replica group fails past the retry budget, answer()
 * throws a typed ive::ShardUnavailable — graceful degradation, never
 * a hang or abort. Gather traffic is one ciphertext per slice per
 * query, which is what makes the paper's scale-out near-linear.
 */

#ifndef IVE_SHARD_COORDINATOR_HH
#define IVE_SHARD_COORDINATOR_HH

#include <memory>
#include <thread>

#include "common/annotations.hh"
#include "common/error.hh"
#include "pir/session.hh"

namespace ive {

/**
 * Replication and retry policy of a sharded deployment. The default
 * (one replica, no deadline) reproduces the pre-failover coordinator
 * exactly: a direct call per slice, failures propagate on the first
 * retry budget exhaustion.
 */
struct FailoverConfig
{
    /** Replicas per slice (>= 1). Failover rotates through them. */
    u32 replicas = 1;
    /**
     * Per-shard-call deadline in seconds; 0 disables. When set, each
     * replica call runs under a watchdog and counts as failed (and
     * retryable) once the deadline passes — the abandoned call is
     * joined on coordinator destruction, never blocked on.
     */
    double shardDeadlineSec = 0.0;
    /** Attempts per slice before ShardUnavailable; 0 = 2 * replicas. */
    u32 maxAttempts = 0;
    /** Exponential backoff between attempts: min(cap, base * 2^retry). */
    double backoffBaseSec = 0.001;
    double backoffCapSec = 0.050;
};

/** Backoff before retry #retry (0-based): min(cap, base * 2^retry).
 *  Pure, so the cap contract is testable without sleeping. */
double backoffDelaySec(const FailoverConfig &cfg, u32 retry);

/** Aggregated counters the bench and example print. */
struct ShardCountersSummary
{
    u32 numShards = 1;
    u32 numReplicas = 1;
    u64 queries = 0; ///< Queries folded end-to-end.
    ServerCountersSnapshot shardOps;   ///< Summed over all replicas.
    ServerCountersSnapshot foldOps;    ///< The coordinator's finish.
    u64 broadcastBytes = 0; ///< Query bytes shipped to shards.
    u64 gatherBytes = 0;    ///< Partial bytes gathered back.
    u64 retries = 0;        ///< Re-attempted replica calls.
    u64 failovers = 0;      ///< Retries that switched replica.
    u64 deadlineMisses = 0; ///< Replica calls cut off by the deadline.

    /** Shard and fold work combined. */
    ServerCountersSnapshot
    totalOps() const
    {
        ServerCountersSnapshot t = shardOps;
        t += foldOps;
        return t;
    }
};

class ShardCoordinator
{
  public:
    /**
     * Builds the context and the (empty) store. num_shards must be a
     * power of two in [1, 2^d] (checkShardTopology); anything else
     * throws std::invalid_argument, as does fo.replicas == 0.
     */
    ShardCoordinator(std::span<const u8> params_blob, u32 num_shards,
                     const FailoverConfig &fo = {});
    ShardCoordinator(const PirParams &params, u32 num_shards,
                     const FailoverConfig &fo = {});

    /** Joins any watchdog-abandoned replica calls (bounded by the
     *  failpoint hang cap / the call finishing). */
    ~ShardCoordinator();

    u32 numShards() const { return numShards_; }
    u32 numReplicas() const { return fo_.replicas; }
    const PirParams &params() const { return params_; }
    const HeContext &context() const { return ctx_; }
    const FailoverConfig &failover() const { return fo_; }

    /** The one store every engine reads; fill before answering. */
    Database &database() { return db_; }

    /**
     * Ingests a client's key blob: deserializes it once and builds the
     * num_shards * replicas slice engines plus the fold engine, all
     * over database().
     */
    void ingestKeys(std::span<const u8> key_blob);

    /**
     * Broadcast, gather (with failover), fold: one Response blob per
     * query blob. Throws ShardUnavailable when a slice's whole replica
     * group failed past the retry budget.
     */
    std::vector<u8> answer(std::span<const u8> query_blob);

    /**
     * One slice's PartialResponse blob (a one-slice deployment's
     * Response blob), rotating through the slice's replicas on
     * failure: the gather step of answer(). Throws ShardUnavailable
     * when every attempt failed.
     */
    std::vector<u8> answerSlice(u32 slice,
                                std::span<const u8> query_blob);

    /**
     * Finishes the fold over externally gathered PartialResponse
     * blobs (e.g. from remote shard processes; a one-slice deployment
     * gathers its slice's Response blob). Validates that the
     * set is complete — every shard index exactly once, matching
     * shard count, matching plane counts — and throws SerializeError
     * on any mismatch.
     */
    std::vector<u8>
    foldPartials(std::span<const u8> query_blob,
                 const std::vector<std::vector<u8>> &partial_blobs);

    /** Aggregated op and traffic counters across replicas + fold. */
    ShardCountersSummary summary() const;

  private:
    std::vector<u8> finishFold(
        const PirQuery &query,
        const std::vector<std::vector<u8>> &partial_blobs);
    /** One replica call, under the watchdog when a deadline is set. */
    std::vector<u8>
    callReplica(const std::shared_ptr<const PirServer> &engine,
                std::span<const u8> query_blob);

    PirParams params_;
    HeContext ctx_;
    Database db_;
    u32 numShards_ = 1;
    FailoverConfig fo_;
    /**
     * engines_[slice * replicas + r]. Shared so a watchdog-abandoned
     * call keeps its engine alive across a later ingestKeys. Written by
     * ingestKeys() before concurrent answers start, then only read
     * (the same handshake as ServerSession::server_).
     */
    std::vector<std::shared_ptr<const PirServer>> engines_;
    /** Whole-database engine: runs expandAndSelect and colTor only. */
    std::shared_ptr<const PirServer> foldServer_;
    // Traffic tallies are relaxed atomics, not mutex-guarded state:
    // concurrent answer() calls bump them independently and summary()
    // reads a (possibly torn-across-fields) snapshot by design. See
    // common/annotations.hh for the policy on atomics vs capabilities.
    std::atomic<u64> queries_{0};
    std::atomic<u64> broadcastBytes_{0};
    std::atomic<u64> gatherBytes_{0};
    std::atomic<u64> retries_{0};
    std::atomic<u64> failovers_{0};
    std::atomic<u64> deadlineMisses_{0};
    /** Replica calls whose deadline expired: the watchdog thread is
     *  parked here and joined in the destructor, never detached, so
     *  ASan/TSan see every exit path. */
    mutable Mutex watchdogMu_;
    std::vector<std::thread> abandoned_ IVE_GUARDED_BY(watchdogMu_);
};

} // namespace ive

#endif // IVE_SHARD_COORDINATOR_HH
