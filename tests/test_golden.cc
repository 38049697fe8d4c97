/**
 * @file
 * Golden-vector conformance: the committed fixture blobs under
 * tests/data/ pin the wire format.
 *
 * If the encoder's byte output or the decoder's acceptance drifts,
 * these tests fail — which is the signal that the change needs a
 * kWireVersion bump plus regenerated fixtures (tests/gen_golden.cc).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/thread_pool.hh"
#include "golden_common.hh"
#include "shard/coordinator.hh"

using namespace ive;

namespace {

struct GoldenFixture
{
    GoldenFixture()
        : params(golden::params()),
          client(params, golden::kClientSeed),
          params_blob(client.paramsBlob()),
          key_blob(client.keyBlob()),
          query_blob(client.queryBlob(golden::kEntry))
    {
    }

    PirParams params;
    ClientSession client;
    std::vector<u8> params_blob;
    std::vector<u8> key_blob;
    std::vector<u8> query_blob;
};

#define ASSERT_FIXTURE_PRESENT(blob, name)                              \
    ASSERT_FALSE((blob).empty())                                        \
        << "missing fixture tests/data/" name                           \
        << "; build and run gen_golden, then commit its output"

} // namespace

TEST(Golden, EncoderReproducesCommittedBlobs)
{
    GoldenFixture f;
    std::vector<u8> want_params = golden::readBlob("golden_params.bin");
    std::vector<u8> want_query = golden::readBlob("golden_query.bin");
    ASSERT_FIXTURE_PRESENT(want_params, "golden_params.bin");
    ASSERT_FIXTURE_PRESENT(want_query, "golden_query.bin");

    EXPECT_EQ(f.params_blob, want_params)
        << "params encoding drifted; bump kWireVersion and regenerate";
    EXPECT_EQ(f.query_blob, want_query)
        << "query encoding drifted; bump kWireVersion and regenerate";
}

TEST(Golden, KeyBlobHashPinned)
{
    GoldenFixture f;
    std::vector<u8> want = golden::readBlob("golden_keyblob.fnv");
    ASSERT_FIXTURE_PRESENT(want, "golden_keyblob.fnv");
    char got[32];
    std::snprintf(got, sizeof(got), "%016llx\n",
                  static_cast<unsigned long long>(
                      golden::fnv64(f.key_blob)));
    EXPECT_EQ(std::string(want.begin(), want.end()), got)
        << "public-key encoding drifted; bump kWireVersion and "
           "regenerate";
}

TEST(Golden, ServerReproducesCommittedResponseAtAnyThreadCount)
{
    GoldenFixture f;
    std::vector<u8> want = golden::readBlob("golden_response.bin");
    ASSERT_FIXTURE_PRESENT(want, "golden_response.bin");

    ServerSession server(f.params_blob);
    server.database().fill([&](u64 entry, int plane) {
        return golden::entryContent(f.params, entry, plane);
    });
    server.ingestKeys(f.key_blob);

    for (int threads : {1, 4, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EXPECT_EQ(server.answer(f.query_blob), want)
            << threads << " threads";
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(Golden, CommittedResponseDecodesToDatabaseEntry)
{
    GoldenFixture f;
    std::vector<u8> want = golden::readBlob("golden_response.bin");
    ASSERT_FIXTURE_PRESENT(want, "golden_response.bin");

    auto planes = f.client.decodeResponse(want);
    ASSERT_EQ(planes.size(), static_cast<size_t>(f.params.planes));
    for (int plane = 0; plane < f.params.planes; ++plane) {
        EXPECT_EQ(planes[plane],
                  golden::entryContent(f.params, golden::kEntry, plane))
            << "plane " << plane;
    }
}

TEST(Golden, ShardReproducesCommittedPartialResponse)
{
    GoldenFixture f;
    std::vector<u8> want =
        golden::readBlob("golden_partial_response.bin");
    ASSERT_FIXTURE_PRESENT(want, "golden_partial_response.bin");

    HeContext ctx(f.params.he);
    Database db(ctx, f.params);
    db.fill([&](u64 entry, int plane) {
        return golden::entryContent(f.params, entry, plane);
    });
    PirServer shard0(ctx, f.params, &db,
                     std::make_shared<const PirPublicKeys>(
                         deserializePublicKeys(ctx, f.params, f.key_blob)),
                     golden::kPartialShard, golden::kPartialNumShards);
    for (int threads : {1, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EXPECT_EQ(answerQuery(shard0, f.query_blob), want)
            << threads << " threads";
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(Golden, CoordinatorReproducesCommittedResponse)
{
    // The sharded deployment must produce the exact Response blob the
    // committed single-server fixture pins.
    GoldenFixture f;
    std::vector<u8> want = golden::readBlob("golden_response.bin");
    ASSERT_FIXTURE_PRESENT(want, "golden_response.bin");

    ShardCoordinator coord(f.params_blob, golden::kPartialNumShards);
    coord.database().fill([&](u64 entry, int plane) {
        return golden::entryContent(f.params, entry, plane);
    });
    coord.ingestKeys(f.key_blob);
    EXPECT_EQ(coord.answer(f.query_blob), want);
}

TEST(Golden, DecoderStillAcceptsCommittedQueryBlob)
{
    // Acceptance drift guard: the committed query must deserialize
    // under today's decoder, and a version-byte bump must reject it.
    GoldenFixture f;
    std::vector<u8> blob = golden::readBlob("golden_query.bin");
    ASSERT_FIXTURE_PRESENT(blob, "golden_query.bin");

    HeContext ctx(f.params.he);
    EXPECT_NO_THROW((void)deserializeQuery(ctx, blob));

    std::vector<u8> future = blob;
    future[4] = kWireVersion + 1;
    EXPECT_THROW((void)deserializeQuery(ctx, future), SerializeError);
}
