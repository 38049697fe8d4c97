/**
 * @file
 * Bytes-only PIR sessions: the complete protocol over opaque blobs.
 *
 * ClientSession and ServerSession wrap the in-process client/server
 * pipeline behind the wire format (pir/wire.hh), so the two sides
 * exchange nothing but std::vector<u8> — the shape a socket, RPC
 * framework, or shard router would move. The flow:
 *
 *   client: paramsBlob() ----------------> ServerSession(params_blob)
 *   client: keyBlob() (once) ------------> ingestKeys(key_blob)
 *   client: queryBlob(index) ------------> answer(query_blob)
 *   client: decodeResponse(resp_blob) <--- (all planes of the record)
 *
 * Every server-side caller — ServerSession, the socket front-end's
 * per-client engines (net/server.hh) and the shard servers — answers a
 * query blob through the one answerQuery() below. Every pipeline stage
 * and the serializer are deterministic, so response blobs are
 * byte-identical at any thread count; a batch is parallelFor over
 * answer().
 */

#ifndef IVE_PIR_SESSION_HH
#define IVE_PIR_SESSION_HH

#include <memory>

#include "pir/server.hh"
#include "pir/wire.hh"

namespace ive {

/**
 * Deserializes a public-key blob and validates it against the params'
 * expansion schedule: a structurally valid blob from mismatched params
 * must throw SerializeError here, not abort inside PirServer. Shared
 * by ServerSession::ingestKeys and the shard coordinator's fold engine.
 */
PirPublicKeys deserializeCompatibleKeys(const HeContext &ctx,
                                        const PirParams &params,
                                        std::span<const u8> key_blob);

/**
 * The query path: deserializeQuery -> processAllPlanes -> serialize,
 * under the query's trace, the answer and serialize stage spans, and
 * the session query and byte counters. An engine whose slice covers
 * all 2^d columns returns a Response blob; a shard engine returns its
 * slice's PartialResponse blob, with the shard index and count derived
 * from the slice position. Throws SerializeError on a malformed blob.
 */
std::vector<u8> answerQuery(const PirServer &engine,
                            std::span<const u8> query_blob);

class ClientSession
{
  public:
    ClientSession(const PirParams &params, u64 seed);

    const PirParams &params() const { return params_; }
    const HeContext &context() const { return ctx_; }

    /** Parameter blob the server must be constructed from. */
    std::vector<u8> paramsBlob() const;

    /** Public-key blob, uploaded to the server once per client. */
    std::vector<u8> keyBlob() const;

    /** Query blob for one database entry index. */
    std::vector<u8> queryBlob(u64 entry_index);

    /**
     * Decodes a response blob into the record's mod-P coefficients,
     * one vector per plane.
     */
    std::vector<std::vector<u64>>
    decodeResponse(std::span<const u8> response_blob) const;

  private:
    PirParams params_;
    HeContext ctx_;
    PirClient client_;
    std::vector<u8> keyBlob_;
};

class ServerSession
{
  public:
    /**
     * Builds the server-side context from a client's params. The
     * session holds record slice `shard` of `num_shards` (power of two,
     * at most 2^d so every shard covers whole ColTor columns; anything
     * else throws std::invalid_argument). The default is the whole
     * database; a shard session's answer() returns its PartialResponse
     * for the coordinator's final fold (shard/coordinator.hh).
     */
    explicit ServerSession(std::span<const u8> params_blob, u32 shard = 0,
                           u32 num_shards = 1);
    explicit ServerSession(const PirParams &params, u32 shard = 0,
                           u32 num_shards = 1);

    const PirParams &params() const { return params_; }
    const HeContext &context() const { return ctx_; }

    u32 shard() const { return shard_; }
    u32 numShards() const { return numShards_; }

    /** The (plaintext) database; fill before answering queries. */
    Database &database() { return db_; }

    /** Ingests a client's public-key blob; answer() works after this. */
    void ingestKeys(std::span<const u8> key_blob);

    /**
     * Answers one query blob with all planes of the record: a Response
     * blob, or on a shard session its PartialResponse blob.
     */
    std::vector<u8> answer(std::span<const u8> query_blob) const;

    /** Pipeline op counters of the underlying server (keys required). */
    const ServerCounters &counters() const;

    /** Cumulative queries answered over the session's lifetime. */
    u64
    queriesAnswered() const
    {
        return queriesAnswered_.load(std::memory_order_relaxed);
    }

  private:
    const PirServer &server() const;

    PirParams params_;
    HeContext ctx_;
    u32 shard_ = 0;
    u32 numShards_ = 1;
    Database db_;
    /**
     * Write-once state: set by ingestKeys() before any concurrent
     * answer() call starts (the documented session handshake), then
     * only read. Deliberately not IVE_GUARDED_BY — a capability here
     * would put a lock on the read-only serving hot path; the
     * handshake order is what TSan's session suites pin down.
     */
    std::unique_ptr<PirServer> server_;
    /// Relaxed atomic; see common/annotations.hh for the policy.
    mutable std::atomic<u64> queriesAnswered_{0};
};

} // namespace ive

#endif // IVE_PIR_SESSION_HH
