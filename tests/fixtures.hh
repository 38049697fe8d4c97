/**
 * @file
 * Fixtures the serving suites share: a small PIR geometry,
 * deterministic database content, the single-server reference a
 * sharded deployment must match byte for byte, and an in-process
 * engine over one client's keys.
 */

#ifndef IVE_TESTS_FIXTURES_HH
#define IVE_TESTS_FIXTURES_HH

#include <memory>

#include "shard/coordinator.hh"
#include "shard/dispatcher.hh"

namespace ive {

/** testSmall at n = 256: engines build in milliseconds. */
inline PirParams
smallParams(u64 d0, int d, int planes = 1)
{
    PirParams p = PirParams::testSmall();
    p.he.n = 256;
    p.d0 = d0;
    p.d = d;
    p.planes = planes;
    return p;
}

/** Deterministic database content shared by all endpoints' checks. */
inline std::vector<u64>
dbContent(const PirParams &p, u64 entry, int plane)
{
    std::vector<u64> coeffs(p.he.n);
    for (u64 j = 0; j < p.he.n; ++j)
        coeffs[j] = (entry * 131 + static_cast<u64>(plane) * 7 + j) &
                    (p.he.plainModulus - 1);
    return coeffs;
}

inline Database::Generator
contentGenerator(const PirParams &p)
{
    return [p](u64 entry, int plane) {
        return dbContent(p, entry, plane);
    };
}

/** Reference single-server deployment for byte-identity checks. */
struct Reference
{
    explicit Reference(const PirParams &p, u64 seed = 77)
        : client(p, seed), server(client.paramsBlob())
    {
        server.database().fill(contentGenerator(p));
        server.ingestKeys(client.keyBlob());
    }

    ClientSession client;
    ServerSession server;
};

/** A coordinator over the reference's content and client keys. */
inline std::unique_ptr<ShardCoordinator>
makeCoordinator(Reference &ref, u32 num_shards,
                const FailoverConfig &fo = {})
{
    auto coord = std::make_unique<ShardCoordinator>(
        ref.client.paramsBlob(), num_shards, fo);
    coord->database().fill(contentGenerator(ref.client.params()));
    coord->ingestKeys(ref.client.keyBlob());
    return coord;
}

/** Dispatcher work thunk answering through the coordinator. */
inline ShardDispatcher::AnswerFn
viaCoordinator(ShardCoordinator &coord)
{
    return [&coord](const std::vector<u8> &blob) {
        return coord.answer(blob);
    };
}

/** In-process client, random database, and an engine over its keys. */
struct PirFixture
{
    PirFixture(const PirParams &params, u64 seed)
        : ctx(params.he), client(ctx, params, seed),
          db(Database::random(ctx, params, seed + 1)),
          server(ctx, params, &db,
                 std::make_shared<const PirPublicKeys>(
                     client.genPublicKeys()))
    {
    }

    HeContext ctx;
    PirClient client;
    Database db;
    PirServer server;
};

} // namespace ive

#endif // IVE_TESTS_FIXTURES_HH
