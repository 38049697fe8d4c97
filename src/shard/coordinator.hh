/**
 * @file
 * Partial-fold coordinator for sharded PIR serving (paper SV).
 *
 * The database is partitioned along the record axis into num_shards
 * column-aligned slices, each served by a *replica group* of R
 * identical ShardServer engines. Per query the coordinator:
 *
 *   1. broadcasts the query blob to EVERY slice — a selective send
 *      would reveal which slice holds the requested record, so all
 *      slices always do the same work;
 *   2. gathers one PartialResponse blob per slice, retrying across the
 *      slice's replicas on error or per-shard deadline expiry with
 *      capped exponential backoff (see FailoverConfig);
 *   3. finishes the final log2(num_shards) tournament levels on its
 *      own fold-only engine and serializes a regular Response blob.
 *
 * Every replica of a slice holds the same records and keys and runs
 * the same deterministic pipeline, so every replica computes the
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
#include "shard/shard_server.hh"

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
     * Builds num_shards slices of fo.replicas in-process engines each,
     * plus the fold-only finishing engine. num_shards must be a power
     * of two in [1, 2^d]; anything else throws std::invalid_argument,
     * as does fo.replicas == 0.
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

    /** Replica 0 of one slice (tests, manual filling). */
    ShardServer &shard(u32 slice);
    /** A specific replica of one slice. */
    ShardServer &replica(u32 slice, u32 r);

    /**
     * Fills every replica of every slice from one global-record
     * generator. Engines fill concurrently on the thread pool, so the
     * generator must be thread-safe — in practice a pure function of
     * (entry, plane), which is also what makes every replica's content
     * identical to one big Database::fill (the failover byte-identity
     * precondition).
     */
    void fillDatabase(const Database::Generator &gen);

    /** Ingests a client's key blob on every engine + the fold engine. */
    void ingestKeys(std::span<const u8> key_blob);

    /**
     * Broadcast, gather (with failover), fold: one Response blob per
     * query blob. Throws ShardUnavailable when a slice's whole replica
     * group failed past the retry budget.
     */
    std::vector<u8> answer(std::span<const u8> query_blob);

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
    /** One slice's partial, rotating through replicas on failure. */
    std::vector<u8> gatherSlice(u32 slice,
                                std::span<const u8> query_blob);
    /** One replica call, under the watchdog when a deadline is set. */
    std::vector<u8> callReplica(ShardServer &srv,
                                std::span<const u8> query_blob);

    PirParams params_;
    HeContext ctx_;
    u32 numShards_ = 1;
    FailoverConfig fo_;
    /** engines_[slice * replicas + r]; identical content per slice. */
    std::vector<std::unique_ptr<ShardServer>> engines_;
    std::unique_ptr<PirServer> foldServer_; ///< db = nullptr.
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
