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
 *   3. finishes the final log2(num_shards) tournament levels on
 *      slice 0's engine (expandAndSelect and colTor read no slice)
 *      and serializes a regular Response blob.
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
 *
 * Queries, broadcast and gather bytes, retries, failovers and deadline
 * misses are counted only in obs::Registry (obs::names kShard*,
 * kFailovers, kDeadlineMissShard); the coordinator keeps no copy.
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
    /** Replicas per slice (>= 1), tried in turn for 2 * replicas attempts. */
    u32 replicas = 1;
    /**
     * Per-shard-call deadline in seconds; 0 disables. When set, each
     * replica call runs under a watchdog and counts as failed (and
     * retryable) once the deadline passes — the abandoned call is
     * joined on coordinator destruction, never blocked on.
     */
    double shardDeadlineSec = 0.0;
    /** Exponential backoff between attempts: min(cap, base * 2^retry). */
    double backoffBaseSec = 0.001;
    double backoffCapSec = 0.050;
};

/** Backoff before retry #retry (0-based): min(cap, base * 2^retry).
 *  Pure, so the cap contract is testable without sleeping. */
double backoffDelaySec(const FailoverConfig &cfg, u32 retry);

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
     * Ingests a client's key blob: decodes it once and builds the
     * num_shards * replicas slice engines over database(), all sharing
     * that one copy. Slice 0's first replica also finishes every fold.
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
    /** Replica calls whose deadline expired: the watchdog thread is
     *  parked here and joined in the destructor, never detached, so
     *  ASan/TSan see every exit path. */
    mutable Mutex watchdogMu_;
    std::vector<std::thread> abandoned_ IVE_GUARDED_BY(watchdogMu_);
};

} // namespace ive

#endif // IVE_SHARD_COORDINATOR_HH
