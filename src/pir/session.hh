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
 * per-client engines (net/server.hh) and the shard coordinator's slice
 * engines (shard/coordinator.hh) — decodes a key blob once with
 * deserializePublicKeys, shares the one immutable PirPublicKeys among
 * the engines built from it, and answers a query blob through the one
 * answerQuery() below. Every pipeline stage and the serializer are
 * deterministic, so response blobs are byte-identical at any thread
 * count; a batch is parallelFor over answer().
 */

#ifndef IVE_PIR_SESSION_HH
#define IVE_PIR_SESSION_HH

#include <memory>

#include "pir/server.hh"
#include "pir/wire.hh"

namespace ive {

/**
 * The query path: deserializeQuery -> processAllPlanes -> serialize,
 * under the query's trace, the answer and serialize stage spans, and
 * the session query and byte counters. An engine whose slice covers
 * all 2^d columns returns a Response blob; a shard engine returns its
 * slice's PartialResponse blob, tagged with the engine's shard() and
 * numShards(). Throws SerializeError on a malformed blob.
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
    /** Builds the server-side context from a client's params. */
    explicit ServerSession(std::span<const u8> params_blob);
    explicit ServerSession(const PirParams &params);

    const PirParams &params() const { return params_; }
    const HeContext &context() const { return ctx_; }

    /** The (plaintext) database; fill before answering queries. */
    Database &database() { return db_; }

    /** Ingests a client's public-key blob; answer() works after this. */
    void ingestKeys(std::span<const u8> key_blob);

    /** Answers one query blob with all planes of the record. */
    std::vector<u8> answer(std::span<const u8> query_blob) const;

    /** Pipeline op counters of the underlying server (keys required). */
    const ServerCounters &counters() const;

  private:
    const PirServer &server() const;

    PirParams params_;
    HeContext ctx_;
    Database db_;
    /**
     * Write-once state: set by ingestKeys() before any concurrent
     * answer() call starts (the documented session handshake), then
     * only read. Deliberately not IVE_GUARDED_BY — a capability here
     * would put a lock on the read-only serving hot path; the
     * handshake order is what TSan's session suites pin down.
     */
    std::unique_ptr<PirServer> server_;
};

} // namespace ive

#endif // IVE_PIR_SESSION_HH
