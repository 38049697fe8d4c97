/**
 * @file
 * Bytes-only end-to-end protocol tests.
 *
 * Client and server exchange nothing but std::vector<u8> blobs — the
 * params, key, query, and response encodings of pir/wire.hh — and the
 * full retrieval must succeed for single-plane, all-planes, and
 * batched queries, with response blobs byte-identical at 1 and 8
 * threads.
 */

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "fixtures.hh"

using namespace ive;

namespace {

void
fillDatabase(ServerSession &server)
{
    server.database().fill(contentGenerator(server.params()));
}

/** A batch is parallelFor over answer(): queries are independent. */
std::vector<std::vector<u8>>
answerAll(const ServerSession &server,
          const std::vector<std::vector<u8>> &queries)
{
    std::vector<std::vector<u8>> out(queries.size());
    parallelFor(0, queries.size(),
                [&](u64 i) { out[i] = server.answer(queries[i]); });
    return out;
}

} // namespace

TEST(Session, SinglePlaneBytesOnlyRetrieval)
{
    PirParams params = smallParams(8, 2);
    ClientSession client(params, 77);

    // The server is built purely from the client's params blob.
    ServerSession server(client.paramsBlob());
    fillDatabase(server);
    server.ingestKeys(client.keyBlob());

    u64 target = 21;
    std::vector<u8> response = server.answer(client.queryBlob(target));
    auto planes = client.decodeResponse(response);
    ASSERT_EQ(planes.size(), 1u);
    EXPECT_EQ(planes[0], dbContent(params, target, 0));
}

TEST(Session, ResponseBlobIdenticalAtOneAndEightThreads)
{
    PirParams params = smallParams(8, 2, /*planes=*/2);
    ClientSession client(params, 5);
    ServerSession server(client.paramsBlob());
    fillDatabase(server);
    server.ingestKeys(client.keyBlob());
    std::vector<u8> query = client.queryBlob(13);

    ThreadPool::setGlobalThreads(1);
    std::vector<u8> seq = server.answer(query);
    ThreadPool::setGlobalThreads(8);
    std::vector<u8> par = server.answer(query);
    ThreadPool::setGlobalThreads(1);

    EXPECT_EQ(seq, par);
    auto planes = client.decodeResponse(par);
    ASSERT_EQ(planes.size(), 2u);
    for (int plane = 0; plane < 2; ++plane)
        EXPECT_EQ(planes[plane], dbContent(params, 13, plane));
}

TEST(Session, AllPlanesRetrievalThroughBlobs)
{
    PirParams params = smallParams(8, 2, /*planes=*/3);
    ClientSession client(params, 9);
    ServerSession server(client.paramsBlob());
    fillDatabase(server);
    server.ingestKeys(client.keyBlob());

    u64 target = 30;
    auto planes =
        client.decodeResponse(server.answer(client.queryBlob(target)));
    ASSERT_EQ(planes.size(), 3u);
    for (int plane = 0; plane < 3; ++plane)
        EXPECT_EQ(planes[plane], dbContent(params, target, plane))
            << "plane " << plane;
}

TEST(Session, BatchedQueriesByteIdenticalAcrossThreadCounts)
{
    PirParams params = smallParams(8, 3, /*planes=*/2);
    ClientSession client(params, 23);
    ServerSession server(client.paramsBlob());
    fillDatabase(server);
    server.ingestKeys(client.keyBlob());

    std::vector<u64> targets{0, 5, 17, 42, 63};
    std::vector<std::vector<u8>> queries;
    for (u64 t : targets)
        queries.push_back(client.queryBlob(t));

    ThreadPool::setGlobalThreads(1);
    auto seq = answerAll(server, queries);
    ThreadPool::setGlobalThreads(8);
    auto par = answerAll(server, queries);
    ThreadPool::setGlobalThreads(1);

    ASSERT_EQ(seq.size(), targets.size());
    ASSERT_EQ(par.size(), targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
        EXPECT_EQ(seq[i], par[i]) << "query " << i;
        auto planes = client.decodeResponse(par[i]);
        ASSERT_EQ(planes.size(), 2u);
        for (int plane = 0; plane < 2; ++plane)
            EXPECT_EQ(planes[plane],
                      dbContent(params, targets[i], plane))
                << "query " << i << " plane " << plane;
    }
}

TEST(Session, AnswerBeforeKeyIngestThrows)
{
    PirParams params = smallParams(4, 1);
    ClientSession client(params, 1);
    ServerSession server(client.paramsBlob());
    fillDatabase(server);
    EXPECT_THROW((void)server.answer(client.queryBlob(0)),
                 std::logic_error);
}

TEST(Session, MalformedQueryBlobIsRejectedNotAnswered)
{
    PirParams params = smallParams(4, 1);
    ClientSession client(params, 2);
    ServerSession server(client.paramsBlob());
    fillDatabase(server);
    server.ingestKeys(client.keyBlob());

    std::vector<u8> query = client.queryBlob(0);
    std::vector<u8> truncated(query.begin(),
                              query.begin() + query.size() / 2);
    EXPECT_THROW((void)server.answer(truncated), SerializeError);
    std::vector<u8> garbage(64, 0xA5);
    EXPECT_THROW((void)server.answer(garbage), SerializeError);
    // A batch fan-out surfaces the malformed blob's typed error, too.
    ThreadPool::setGlobalThreads(4);
    EXPECT_THROW((void)answerAll(server, {query, truncated}),
                 SerializeError);
    ThreadPool::setGlobalThreads(1);
}

TEST(Session, KeyBlobFromShallowerClientIsRejected)
{
    // A key blob that parses but lacks evks for the server's deeper
    // expansion tree must throw, not abort inside PirServer.
    PirParams shallow = smallParams(4, 1); // depth 4
    PirParams deep = smallParams(16, 2);   // depth 5
    ClientSession client(shallow, 31);
    ServerSession server(deep);
    fillDatabase(server);
    EXPECT_THROW(server.ingestKeys(client.keyBlob()), SerializeError);
}

TEST(Session, KeyBlobIsStableAcrossCalls)
{
    // keyBlob() is a cached copy; asking twice neither reruns keygen
    // nor perturbs the query RNG stream.
    PirParams params = smallParams(4, 1);
    ClientSession a(params, 12);
    EXPECT_EQ(a.keyBlob(), a.keyBlob());

    ClientSession b(params, 12);
    (void)b.keyBlob();
    ClientSession c(params, 12);
    EXPECT_EQ(b.queryBlob(2), c.queryBlob(2));
}

TEST(Session, TwoClientsShareOneDatabaseViaBlobs)
{
    PirParams params = smallParams(8, 2);
    ClientSession alice(params, 100);
    ClientSession bob(params, 200);

    // One server session per client key set, same plaintext content.
    ServerSession srvA(alice.paramsBlob());
    ServerSession srvB(bob.paramsBlob());
    fillDatabase(srvA);
    fillDatabase(srvB);
    srvA.ingestKeys(alice.keyBlob());
    srvB.ingestKeys(bob.keyBlob());

    auto a = alice.decodeResponse(srvA.answer(alice.queryBlob(3)));
    auto b = bob.decodeResponse(srvB.answer(bob.queryBlob(30)));
    EXPECT_EQ(a[0], dbContent(params, 3, 0));
    EXPECT_EQ(b[0], dbContent(params, 30, 0));
}
