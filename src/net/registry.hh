/**
 * @file
 * Keyed session registry: per-client query engines under a memory cap.
 *
 * SealPIR's deployment model (set_galois_key(client_id, keys)) applied
 * to this stack: a client uploads its Params + PublicKeys blobs ONCE
 * under a client id, the registry builds a per-client PirServer over
 * the server's one shared Database, and every later query references
 * the id instead of re-shipping megabytes of keys.
 *
 * Eviction and staleness:
 *
 *   - Key material is the only per-client state, but at paper
 *     parameters it is tens of MiB per client, so the registry
 *     enforces a byte budget with LRU eviction (touched on every
 *     lookup) plus a session-count cap.
 *   - Every successful registration is stamped with a globally
 *     monotonic GENERATION. A query must present the generation its
 *     registration returned; after an evict + re-register the old
 *     generation no longer matches, so a stale reference can never be
 *     silently served with different keys than the client believes
 *     are installed (StaleGenerationError instead).
 *   - lookup() returns a shared_ptr pin: an engine evicted while one
 *     of its queries is still in flight stays alive until that query
 *     completes, it just stops being findable.
 *
 * Thread-safe; key decoding (structure, schedule and NTT-form checks,
 * the expensive part) and engine construction run outside the lock.
 */

#ifndef IVE_NET_REGISTRY_HH
#define IVE_NET_REGISTRY_HH

#include <list>
#include <memory>
#include <unordered_map>

#include "common/annotations.hh"
#include "pir/server.hh"

namespace ive::net {

/** QueryRef names a client id the registry has no entry for (never
 *  registered, or LRU-evicted since). */
class UnknownClientError : public Error
{
    using Error::Error;
};

/** QueryRef generation does not match the client's current
 *  registration (evicted and re-registered in between). */
class StaleGenerationError : public Error
{
    using Error::Error;
};

struct RegistryConfig
{
    /**
     * Byte budget across all registered sessions, accounted as each
     * session's key-blob size (the dominant per-client cost; the
     * decoded in-memory keys are the same order of magnitude).
     * Exceeding the budget evicts least-recently-used sessions; a
     * single session larger than the whole budget is rejected with
     * Overloaded.
     */
    u64 memoryBudgetBytes = u64{256} << 20;
    /** Hard cap on concurrently registered sessions. */
    u64 maxSessions = 4096;
};

/** Point-in-time registry occupancy (mirrors the obs gauges). */
struct RegistryStats
{
    u64 active = 0;     ///< Sessions currently registered.
    u64 bytes = 0;      ///< Budgeted bytes currently held.
    u64 registered = 0; ///< Successful registrations, cumulative.
    u64 evicted = 0;    ///< LRU evictions, cumulative.
    u64 replaced = 0;   ///< Re-registrations over a live session.
};

class SessionRegistry
{
  public:
    /**
     * The context, params, and database are the server's one shared
     * deployment; all three must outlive the registry. A client's
     * params blob must decode to exactly these params (the database
     * layout depends on them), else registration fails with
     * SerializeError.
     */
    SessionRegistry(const HeContext &ctx, const PirParams &params,
                    const Database *db, RegistryConfig cfg = {});

    SessionRegistry(const SessionRegistry &) = delete;
    SessionRegistry &operator=(const SessionRegistry &) = delete;

    /**
     * Validates the blobs, builds the client's engine, installs it
     * (replacing any live registration for the id), LRU-evicts until
     * the budget and session cap hold, and returns the new
     * generation. Throws SerializeError on malformed/mismatched
     * blobs, Overloaded when the session alone exceeds the budget.
     */
    u64 registerClient(u64 client_id, std::span<const u8> params_blob,
                       std::span<const u8> key_blob) IVE_EXCLUDES(mu_);

    /**
     * Pins and returns the client's engine, refreshing its LRU
     * position. Throws UnknownClientError / StaleGenerationError.
     */
    std::shared_ptr<const PirServer> lookup(u64 client_id,
                                            u64 generation)
        IVE_EXCLUDES(mu_);

    /** Current generation for the id, or 0 if not registered — the
     *  Hello handshake's answer. */
    u64 currentGeneration(u64 client_id) const IVE_EXCLUDES(mu_);

    RegistryStats stats() const IVE_EXCLUDES(mu_);

    const HeContext &context() const { return ctx_; }
    const PirParams &params() const { return params_; }

  private:
    struct Entry
    {
        u64 generation = 0;
        u64 bytes = 0;
        std::shared_ptr<const PirServer> engine;
        std::list<u64>::iterator lruPos; ///< Position in lru_.
    };

    /** Drops the LRU tail until budget and count hold (lock held). */
    void evictUntilWithinBudget() IVE_REQUIRES(mu_);

    const HeContext &ctx_;
    const PirParams params_;
    const Database *db_;
    const RegistryConfig cfg_;
    const std::vector<u8> canonicalParams_; ///< serializeParams(params_).

    mutable Mutex mu_;
    std::unordered_map<u64, Entry> sessions_ IVE_GUARDED_BY(mu_);
    std::list<u64> lru_ IVE_GUARDED_BY(mu_); ///< Front = most recent.
    u64 bytes_ IVE_GUARDED_BY(mu_) = 0;
    u64 nextGeneration_ IVE_GUARDED_BY(mu_) = 1;
    RegistryStats stats_ IVE_GUARDED_BY(mu_);
};

} // namespace ive::net

#endif // IVE_NET_REGISTRY_HH
