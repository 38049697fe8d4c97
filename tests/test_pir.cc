/**
 * @file
 * End-to-end PIR protocol tests (paper Fig. 2 pipeline).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "bfv/noise.hh"
#include "common/thread_pool.hh"
#include "fixtures.hh"

using namespace ive;

namespace {

/** One single-plane answer: the whole pipeline on one query. */
BfvCiphertext
answerOne(const PirServer &server, const PirQuery &q)
{
    return server.processAllPlanes(q)[0];
}

} // namespace

class PirSweep
    : public ::testing::TestWithParam<std::tuple<u64, int, u64>>
{
};

TEST_P(PirSweep, RetrievesCorrectEntry)
{
    auto [d0, d, target_seed] = GetParam();
    PirParams params = smallParams(d0, d);
    PirFixture f(params, 100 + target_seed);

    Rng trng(target_seed);
    u64 target = trng.uniform(params.numEntries());
    PirQuery q = f.client.makeQuery(target);
    BfvCiphertext resp = answerOne(f.server, q);
    EXPECT_EQ(f.client.decode(resp), f.db.entryCoeffs(target));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PirSweep,
    ::testing::Values(std::tuple{u64{4}, 0, u64{1}},
                      std::tuple{u64{4}, 1, u64{2}},
                      std::tuple{u64{8}, 2, u64{3}},
                      std::tuple{u64{16}, 2, u64{4}},
                      std::tuple{u64{16}, 3, u64{5}},
                      std::tuple{u64{32}, 4, u64{6}},
                      std::tuple{u64{8}, 5, u64{7}}));

TEST(Pir, AllEntriesOfSmallDatabase)
{
    PirParams params = smallParams(8, 2);
    PirFixture f(params, 42);
    for (u64 target = 0; target < params.numEntries(); ++target) {
        PirQuery q = f.client.makeQuery(target);
        BfvCiphertext resp = answerOne(f.server, q);
        EXPECT_EQ(f.client.decode(resp), f.db.entryCoeffs(target))
            << "target " << target;
    }
}

TEST(Pir, ExpandedLeavesAreOneHot)
{
    PirParams params = smallParams(16, 2);
    PirFixture f(params, 7);
    u64 target = 13; // i* = 13, k* = 0
    PirQuery q = f.client.makeQuery(target);
    std::vector<RgswCiphertext> none;
    auto leaves = f.server.expandAndSelect(q, 0, 0, none);
    ASSERT_EQ(leaves.size(), params.usedLeaves());
    // The first D0 leaves encrypt Delta-scaled one-hot values.
    for (u64 i = 0; i < params.d0; ++i) {
        auto dec = decrypt(f.ctx, f.client.secretKey(), leaves[i]);
        EXPECT_EQ(dec[0], i == target ? 1u : 0u) << i;
        for (u64 j = 1; j < f.ctx.n(); ++j)
            EXPECT_EQ(dec[j], 0u);
    }
}

TEST(Pir, MultiPlaneRecordsShareOneExpansion)
{
    PirParams params = smallParams(8, 2);
    params.planes = 3;
    PirFixture f(params, 9);
    u64 target = 17 % params.numEntries();
    PirQuery q = f.client.makeQuery(target);
    auto responses = f.server.processAllPlanes(q);
    ASSERT_EQ(responses.size(), 3u);
    for (int plane = 0; plane < 3; ++plane) {
        EXPECT_EQ(f.client.decode(responses[plane]),
                  f.db.entryCoeffs(target, plane))
            << "plane " << plane;
    }
}

TEST(Pir, ResponseNoiseWithinBudget)
{
    PirParams params = smallParams(16, 3);
    PirFixture f(params, 11);
    u64 target = 29;
    PirQuery q = f.client.makeQuery(target);
    BfvCiphertext resp = answerOne(f.server, q);
    auto want = f.db.entryCoeffs(target);
    NoiseReport rep = f.client.responseNoise(resp, want);
    EXPECT_GT(rep.budgetBits, 2.0);
}

TEST(Pir, ErrorGrowsAdditivelyInD)
{
    // Paper SII-C error analysis: noise is stable as d grows (response
    // error = RowSel error + O(d) * RGSW error).
    double prev = 0.0;
    for (int d : {1, 3, 5}) {
        PirParams params = smallParams(8, d);
        PirFixture f(params, 200 + d);
        u64 target = (u64{1} << d) * 3 + 5; // arbitrary valid entry
        target %= params.numEntries();
        PirQuery q = f.client.makeQuery(target);
        BfvCiphertext resp = answerOne(f.server, q);
        auto want = f.db.entryCoeffs(target);
        double noise = f.client.responseNoise(resp, want).noiseBits;
        if (prev > 0.0) {
            EXPECT_LT(noise - prev, 3.0) << "d=" << d;
        }
        prev = noise;
    }
}

TEST(Pir, BatchProcessingMatchesIndividual)
{
    PirParams params = smallParams(8, 2);
    PirFixture f(params, 55);
    std::vector<PirQuery> queries;
    std::vector<u64> targets = {0, 5, 31, 17};
    for (u64 t : targets)
        queries.push_back(f.client.makeQuery(t));
    // A batch is parallelFor over independent queries on one server.
    std::vector<BfvCiphertext> responses(queries.size());
    parallelFor(0, queries.size(), [&](u64 i) {
        responses[i] = answerOne(f.server, queries[i]);
    });
    ASSERT_EQ(responses.size(), targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
        EXPECT_EQ(f.client.decode(responses[i]),
                  f.db.entryCoeffs(targets[i]));
    }
}

TEST(Pir, TwoClientsWithDistinctKeys)
{
    // Batching works across clients: each client has its own keys and
    // the server processes both against the same database.
    PirParams params = smallParams(8, 2);
    HeContext ctx(params.he);
    Database db = Database::random(ctx, params, 777);

    PirClient alice(ctx, params, 1000);
    PirClient bob(ctx, params, 2000);
    PirServer srvA(ctx, params, &db,
                   std::make_shared<const PirPublicKeys>(
                       alice.genPublicKeys()));
    PirServer srvB(ctx, params, &db,
                   std::make_shared<const PirPublicKeys>(
                       bob.genPublicKeys()));

    auto respA = answerOne(srvA, alice.makeQuery(3));
    auto respB = answerOne(srvB, bob.makeQuery(30));
    EXPECT_EQ(alice.decode(respA), db.entryCoeffs(3));
    EXPECT_EQ(bob.decode(respB), db.entryCoeffs(30));
    // Cross-decoding must NOT work (different secret keys).
    EXPECT_NE(bob.decode(respA), db.entryCoeffs(3));
}

TEST(Pir, QueryUploadSizeIsSmall)
{
    PirParams params = PirParams::functionalDefault();
    HeContext ctx(params.he);
    PirClient client(ctx, params, 1);
    PirPublicKeys keys = client.genPublicKeys();
    // "Each query transfers only a few MBs" (paper SVI-C): keys + query
    // must be well under 32 MB at 28-bit packing.
    u64 bytes = keys.byteSize(ctx) + BfvCiphertext::byteSize(ctx);
    EXPECT_LT(bytes, 32u * 1024 * 1024);
}

TEST(Pir, ParamsValidation)
{
    PirParams p = PirParams::testSmall();
    p.d0 = 3; // not a power of two
    EXPECT_THROW(p.validate(), std::invalid_argument);

    PirParams q = PirParams::testSmall();
    q.he.n = 64;
    q.d0 = 64;
    q.d = 8; // 64 + 8*8 = 128 > n
    EXPECT_THROW(q.validate(), std::invalid_argument);
}

TEST(Pir, ForDbSizeGeometry)
{
    PirParams p = PirParams::forDbSize(u64{2} << 30); // 2 GiB
    EXPECT_EQ(p.d0, 256u);
    // 2 GiB / 16 KiB = 2^17 entries; 2^17 / 256 = 2^9.
    EXPECT_EQ(p.d, 9);
    EXPECT_GE(p.numEntries() * p.bytesPerPlaintext(), u64{2} << 30);
}
