#include "net/registry.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "pir/wire.hh"

namespace ive::net {

namespace {

/** Registry occupancy, aggregated across registries for render(). */
struct RegistryMetrics
{
    obs::Gauge &active;
    obs::Gauge &bytes;
    obs::Counter &registered;
    obs::Counter &evicted;
};

RegistryMetrics &
registryMetrics()
{
    namespace n = obs::names;
    obs::Registry &r = obs::Registry::global();
    static RegistryMetrics m{
        r.gauge(n::kSessionsActive, "sessions currently registered"),
        r.gauge(n::kSessionsBytes, "budgeted session bytes held"),
        r.counter(n::kSessionsRegistered,
                  "successful key registrations"),
        r.counter(n::kSessionsEvicted, "sessions evicted by LRU"),
    };
    return m;
}

} // namespace

SessionRegistry::SessionRegistry(const HeContext &ctx,
                                 const PirParams &params,
                                 const Database *db, RegistryConfig cfg)
    : ctx_(ctx), params_(params), db_(db), cfg_(cfg),
      canonicalParams_(serializeParams(params))
{
    ive_assert(db != nullptr);
    ive_assert(cfg_.memoryBudgetBytes > 0);
    ive_assert(cfg_.maxSessions > 0);
    // Every engine shares the context's expansion tables: build them
    // at startup, so no RegisterKeys pays for them and they sit below
    // the key blobs on the heap (built inside the first registration,
    // glibc's heap layout held about 20 MiB more RSS in perfbench's
    // key_churn on a 4-core host).
    for (int t = 0; t < params_.expansionDepth(); ++t)
        (void)ctx_.expansionMonomial(t);
}

u64
SessionRegistry::registerClient(u64 client_id,
                                std::span<const u8> params_blob,
                                std::span<const u8> key_blob)
{
    // All the expensive and throwing work happens before the lock:
    // params equality via the canonical encoding (two PirParams are
    // the same deployment iff their wire forms match), then key
    // decoding (structure, schedule, NTT form) + engine construction.
    PirParams client_params = deserializeParams(params_blob);
    std::vector<u8> canonical = serializeParams(client_params);
    if (canonical.size() != canonicalParams_.size() ||
        !std::equal(canonical.begin(), canonical.end(),
                    canonicalParams_.begin()))
        throw SerializeError(
            "registry: client params do not match this deployment");
    auto keys = std::make_shared<const PirPublicKeys>(
        deserializePublicKeys(ctx_, params_, key_blob));
    u64 bytes = key_blob.size();
    if (bytes > cfg_.memoryBudgetBytes)
        throw Overloaded(strprintf(
            "registry: one session of %llu bytes exceeds the %llu-byte "
            "budget",
            static_cast<unsigned long long>(bytes),
            static_cast<unsigned long long>(cfg_.memoryBudgetBytes)));
    auto engine = std::make_shared<const PirServer>(ctx_, params_, db_,
                                                    std::move(keys));

    RegistryMetrics &rm = registryMetrics();
    u64 generation = 0;
    {
        LockGuard lk(mu_);
        auto it = sessions_.find(client_id);
        if (it != sessions_.end()) {
            // Replace in place: same id re-registering (e.g. after a
            // client restart) keeps one slot but gets a new
            // generation, so responses under the old keys can no
            // longer be requested.
            bytes_ -= it->second.bytes;
            lru_.erase(it->second.lruPos);
            sessions_.erase(it);
            ++stats_.replaced;
        }
        generation = nextGeneration_++;
        lru_.push_front(client_id);
        Entry e;
        e.generation = generation;
        e.bytes = bytes;
        e.engine = std::move(engine);
        e.lruPos = lru_.begin();
        sessions_.emplace(client_id, std::move(e));
        bytes_ += bytes;
        ++stats_.registered;
        evictUntilWithinBudget();
        stats_.active = sessions_.size();
        stats_.bytes = bytes_;
        rm.active.set(static_cast<i64>(sessions_.size()));
        rm.bytes.set(static_cast<i64>(bytes_));
    }
    rm.registered.add(1);
    return generation;
}

void
SessionRegistry::evictUntilWithinBudget()
{
    RegistryMetrics &rm = registryMetrics();
    while (!lru_.empty() && (bytes_ > cfg_.memoryBudgetBytes ||
                             sessions_.size() > cfg_.maxSessions)) {
        u64 victim = lru_.back();
        lru_.pop_back();
        auto it = sessions_.find(victim);
        ive_assert(it != sessions_.end());
        bytes_ -= it->second.bytes;
        // In-flight queries holding the engine's shared_ptr keep it
        // alive past this erase; it just stops being findable.
        sessions_.erase(it);
        ++stats_.evicted;
        rm.evicted.add(1);
    }
}

std::shared_ptr<const PirServer>
SessionRegistry::lookup(u64 client_id, u64 generation)
{
    LockGuard lk(mu_);
    auto it = sessions_.find(client_id);
    if (it == sessions_.end())
        throw UnknownClientError(strprintf(
            "registry: client %llu is not registered (evicted or "
            "never seen); re-register keys",
            static_cast<unsigned long long>(client_id)));
    if (it->second.generation != generation)
        throw StaleGenerationError(strprintf(
            "registry: client %llu presented generation %llu but the "
            "current registration is generation %llu; re-register keys",
            static_cast<unsigned long long>(client_id),
            static_cast<unsigned long long>(generation),
            static_cast<unsigned long long>(it->second.generation)));
    // Refresh recency: splice this id to the front of the LRU list.
    lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    return it->second.engine;
}

u64
SessionRegistry::currentGeneration(u64 client_id) const
{
    LockGuard lk(mu_);
    auto it = sessions_.find(client_id);
    return it == sessions_.end() ? 0 : it->second.generation;
}

RegistryStats
SessionRegistry::stats() const
{
    LockGuard lk(mu_);
    return stats_;
}

} // namespace ive::net
