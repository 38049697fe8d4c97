/**
 * @file
 * Parallel server-path tests: the batched pipeline must produce
 * byte-identical responses at any thread count, keep the op counters
 * exact, and still decrypt to the right database entries.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "modmath/primes.hh"
#include "pir/server.hh"

using namespace ive;

namespace {

PirParams
smallParams(u64 d0, int d, int planes = 1)
{
    PirParams p = PirParams::testSmall();
    p.he.n = 256;
    p.d0 = d0;
    p.d = d;
    p.planes = planes;
    return p;
}

struct PirFixture
{
    PirFixture(const PirParams &params, u64 seed)
        : ctx(params.he), client(ctx, params, seed),
          db(Database::random(ctx, params, seed + 1)),
          server(ctx, params, &db, client.genPublicKeys())
    {
    }

    HeContext ctx;
    PirClient client;
    Database db;
    PirServer server;
};

bool
ctEqual(const BfvCiphertext &x, const BfvCiphertext &y)
{
    return x.a == y.a && x.b == y.b;
}

/** One single-plane answer: the whole pipeline on one query. */
BfvCiphertext
answerOne(const PirServer &server, const PirQuery &q)
{
    return server.processAllPlanes(q)[0];
}

/** A batch is parallelFor over independent queries. */
std::vector<BfvCiphertext>
answerAll(const PirServer &server, const std::vector<PirQuery> &queries)
{
    std::vector<BfvCiphertext> out(queries.size());
    parallelFor(0, queries.size(),
                [&](u64 i) { out[i] = answerOne(server, queries[i]); });
    return out;
}

} // namespace

TEST(ParallelServer, BatchResponsesIdenticalAtOneAndEightThreads)
{
    PirParams params = smallParams(16, 3);
    PirFixture f(params, 21);

    std::vector<PirQuery> queries;
    std::vector<u64> targets{0, 3, 17, 63, 100, 127};
    for (u64 t : targets)
        queries.push_back(f.client.makeQuery(t));

    ThreadPool::setGlobalThreads(1);
    auto seq = answerAll(f.server, queries);
    ThreadPool::setGlobalThreads(8);
    auto par = answerAll(f.server, queries);
    ThreadPool::setGlobalThreads(1);

    ASSERT_EQ(seq.size(), queries.size());
    ASSERT_EQ(par.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_TRUE(ctEqual(seq[i], par[i])) << "query " << i;
        // And both decode to the right entry.
        EXPECT_EQ(f.client.decode(par[i]),
                  f.db.entryCoeffs(targets[i]))
            << "query " << i;
    }
}

TEST(ParallelServer, SingleQueryPipelineIdenticalAcrossThreadCounts)
{
    PirParams params = smallParams(16, 3);
    PirFixture f(params, 33);
    PirQuery q = f.client.makeQuery(42);

    // Odd counts exercise unbalanced chunk boundaries and partial-lane
    // dispatch; powers of two exercise the balanced fast cases.
    ThreadPool::setGlobalThreads(1);
    BfvCiphertext base = answerOne(f.server, q);
    for (int threads : {2, 3, 4, 5, 7, 8}) {
        ThreadPool::setGlobalThreads(threads);
        BfvCiphertext resp = answerOne(f.server, q);
        EXPECT_TRUE(ctEqual(base, resp)) << threads << " threads";
    }
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(f.client.decode(base), f.db.entryCoeffs(42));
}

TEST(ParallelServer, SegmentedRowSelIdenticalWhenColumnsUnderfillPool)
{
    // cols = 2 with d0 = 32 cannot fill 3 or 8 lanes, so RowSel splits
    // each column's MAC chain into segment partials and merges them;
    // cols = 4 with d0 = 16 runs whole columns on 3 lanes and segments
    // on 8; cols = 8 with d0 = 16 runs whole columns. Either way the
    // response must match the 1-thread chain exactly and decode. The
    // mixed basis adds a prime >= 2^32 (simd::kFusedMacModulusBound),
    // whose planes take the strict canonical branch of the chain and
    // the merge.
    const std::vector<u64> mixed = {kIvePrimes[0], kIvePrimes[1],
                                    findNttPrimes(45, 256, 1)[0]};
    for (bool strict : {false, true}) {
        for (auto [d0, d] :
             {std::pair<u64, int>{32, 1}, {16, 2}, {16, 3}}) {
            PirParams params = smallParams(d0, d);
            if (strict) {
                params.he.primes = mixed;
                params.he.plainModulus = u64{1} << 16;
            }
            PirFixture f(params, 91);
            PirQuery q = f.client.makeQuery(40);
            SCOPED_TRACE(testing::Message()
                         << (strict ? "mixed" : "default") << " basis, d0 "
                         << d0 << ", d " << d);

            ThreadPool::setGlobalThreads(1);
            BfvCiphertext base = answerOne(f.server, q);
            for (int threads : {3, 8}) {
                ThreadPool::setGlobalThreads(threads);
                BfvCiphertext resp = answerOne(f.server, q);
                EXPECT_TRUE(ctEqual(base, resp)) << threads << " threads";
            }
            ThreadPool::setGlobalThreads(1);
            EXPECT_EQ(f.client.decode(base), f.db.entryCoeffs(40));
        }
    }
}

TEST(ParallelServer, ExpandAndSelectMatchesSeparatePhases)
{
    PirParams params = smallParams(16, 3);
    PirFixture f(params, 13);
    PirQuery q = f.client.makeQuery(77);

    for (int threads : {1, 8}) {
        ThreadPool::setGlobalThreads(threads);
        std::vector<RgswCiphertext> none;
        std::vector<BfvCiphertext> leaves =
            f.server.expandAndSelect(q, 0, 0, none);
        std::vector<RgswCiphertext> separate =
            f.server.buildSelectors(leaves, 0, params.d);

        std::vector<RgswCiphertext> fused;
        std::vector<BfvCiphertext> leaves2 =
            f.server.expandAndSelect(q, 0, params.d, fused);

        ASSERT_EQ(leaves.size(), leaves2.size());
        for (size_t i = 0; i < leaves.size(); ++i)
            EXPECT_TRUE(ctEqual(leaves[i], leaves2[i]))
                << threads << " threads, leaf " << i;
        ASSERT_EQ(separate.size(), fused.size());
        for (size_t t = 0; t < separate.size(); ++t) {
            ASSERT_EQ(separate[t].rows.size(), fused[t].rows.size());
            for (size_t r = 0; r < separate[t].rows.size(); ++r)
                EXPECT_TRUE(ctEqual(separate[t].rows[r],
                                    fused[t].rows[r]))
                    << threads << " threads, sel " << t << " row " << r;
        }
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(ParallelServer, StressConcurrentHostsHitSegmentedMerge)
{
    // TSan stress for the per-thread partial-accumulator merge: several
    // host threads answer the same query through the shared global pool
    // while cols < lanes makes RowSel split every column into segments.
    // Any cross-thread race on the partial slices, the merge, or the
    // workspace leases shows up under -L thread (scripts/ci.sh TSan
    // stage runs this binary).
    PirParams params = smallParams(32, 1);
    PirFixture f(params, 17);
    PirQuery q = f.client.makeQuery(12);

    ThreadPool::setGlobalThreads(4);
    BfvCiphertext base = answerOne(f.server, q);

    std::vector<BfvCiphertext> results(4);
    std::vector<std::thread> hosts;
    for (size_t t = 0; t < results.size(); ++t) {
        hosts.emplace_back([&, t] {
            for (int rep = 0; rep < 3; ++rep)
                results[t] = answerOne(f.server, q);
        });
    }
    for (auto &t : hosts)
        t.join();
    ThreadPool::setGlobalThreads(1);

    for (size_t t = 0; t < results.size(); ++t)
        EXPECT_TRUE(ctEqual(results[t], base)) << "host " << t;
}

TEST(ParallelServer, MultiPlaneResponsesIdenticalAcrossThreadCounts)
{
    PirParams params = smallParams(8, 2, /*planes=*/3);
    PirFixture f(params, 55);
    PirQuery q = f.client.makeQuery(9);

    ThreadPool::setGlobalThreads(1);
    auto base = f.server.processAllPlanes(q);
    ThreadPool::setGlobalThreads(8);
    auto par = f.server.processAllPlanes(q);
    ThreadPool::setGlobalThreads(1);

    ASSERT_EQ(base.size(), static_cast<size_t>(params.planes));
    ASSERT_EQ(par.size(), base.size());
    for (size_t p = 0; p < base.size(); ++p)
        EXPECT_TRUE(ctEqual(base[p], par[p])) << "plane " << p;
}

TEST(ParallelServer, CountersStayExactUnderParallelism)
{
    PirParams params = smallParams(16, 3);
    PirFixture f(params, 77);
    PirQuery q = f.client.makeQuery(5);

    ThreadPool::setGlobalThreads(1);
    f.server.resetCounters();
    (void)answerOne(f.server, q);
    u64 subs = f.server.counters().subsOps;
    u64 ext = f.server.counters().externalProducts;
    u64 macs = f.server.counters().plainMulAccs;

    ThreadPool::setGlobalThreads(8);
    f.server.resetCounters();
    (void)answerOne(f.server, q);
    EXPECT_EQ(f.server.counters().subsOps, subs);
    EXPECT_EQ(f.server.counters().externalProducts, ext);
    EXPECT_EQ(f.server.counters().plainMulAccs, macs);
    ThreadPool::setGlobalThreads(1);
}
