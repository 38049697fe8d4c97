/**
 * @file
 * Sharded serving: slicing, coordinator fold correctness, hostile
 * partial rejection, and the live waiting-window dispatcher.
 *
 * The load-bearing property is byte-identity: for the same query, the
 * shard coordinator's Response blobs must equal the single-server
 * ServerSession::answer() blobs at every shard count (1/2/4/8) and
 * thread count (1/8). Everything else — slicing boundaries, counter
 * aggregation, topology validation, dispatcher batching — supports
 * that deployment.
 */

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "common/thread_pool.hh"
#include "shard/coordinator.hh"
#include "shard/dispatcher.hh"

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

/** Deterministic database content shared by all endpoints' checks. */
std::vector<u64>
dbContent(const PirParams &p, u64 entry, int plane)
{
    std::vector<u64> coeffs(p.he.n);
    for (u64 j = 0; j < p.he.n; ++j)
        coeffs[j] = (entry * 131 + static_cast<u64>(plane) * 7 + j) &
                    (p.he.plainModulus - 1);
    return coeffs;
}

Database::Generator
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

std::unique_ptr<ShardCoordinator>
makeCoordinator(Reference &ref, u32 num_shards)
{
    auto coord = std::make_unique<ShardCoordinator>(
        ref.client.paramsBlob(), num_shards);
    coord->fillDatabase(contentGenerator(ref.client.params()));
    coord->ingestKeys(ref.client.keyBlob());
    return coord;
}

/** Dispatcher work thunk answering through the coordinator. */
ShardDispatcher::AnswerFn
viaCoordinator(ShardCoordinator &coord)
{
    return [&coord](const std::vector<u8> &blob) {
        return coord.answer(blob);
    };
}

} // namespace

// ---------------------------------------------------------------- slicing

TEST(Slice, RangesPartitionExactly)
{
    // Exact boundaries: shards cover [0, total) with no overlap or
    // gap, and non-divisible totals split with sizes differing by at
    // most one.
    for (u64 total : {1ull, 7ull, 16ull, 64ull, 100ull}) {
        for (u64 shards : {1ull, 2ull, 3ull, 5ull, 8ull}) {
            if (shards > total)
                continue;
            u64 expect_begin = 0;
            for (u64 s = 0; s < shards; ++s) {
                auto [begin, count] =
                    Database::sliceRange(total, s, shards);
                EXPECT_EQ(begin, expect_begin)
                    << total << "/" << shards << " shard " << s;
                u64 lo = total / shards;
                EXPECT_TRUE(count == lo || count == lo + 1)
                    << total << "/" << shards << " shard " << s
                    << " count " << count;
                expect_begin = begin + count;
            }
            EXPECT_EQ(expect_begin, total)
                << total << "/" << shards;
        }
    }
}

TEST(Slice, CopiesGlobalRecordsIntact)
{
    PirParams params = smallParams(4, 2, /*planes=*/2); // 16 records
    HeContext ctx(params.he);
    Database full = Database::random(ctx, params, 99);

    // Three shards of a 16-record store: 5 + 5 + 6, non-divisible.
    u64 covered = 0;
    for (u64 s = 0; s < 3; ++s) {
        Database slice = full.slice(s, 3);
        EXPECT_EQ(slice.firstEntry(), covered);
        covered += slice.numEntries();
        EXPECT_EQ(slice.totalEntries(), full.numEntries());
        for (u64 e = slice.firstEntry();
             e < slice.firstEntry() + slice.numEntries(); ++e) {
            for (int plane = 0; plane < params.planes; ++plane)
                EXPECT_EQ(slice.entryCoeffs(e, plane),
                          full.entryCoeffs(e, plane))
                    << "record " << e << " plane " << plane;
        }
    }
    EXPECT_EQ(covered, full.numEntries());
}

TEST(Slice, FillMatchesSliceOfFullDatabase)
{
    // Filling a shard-constructed slice with a global-id generator
    // produces the same records as slicing a filled full database.
    PirParams params = smallParams(4, 2); // 16 records, 4 columns
    HeContext ctx(params.he);
    Database full(ctx, params);
    full.fill(contentGenerator(params));

    Database sliced = full.slice(1, 2);
    Database direct(ctx, params, sliced.firstEntry(),
                    sliced.numEntries());
    direct.fill(contentGenerator(params));
    for (u64 e = direct.firstEntry();
         e < direct.firstEntry() + direct.numEntries(); ++e)
        EXPECT_EQ(direct.entryCoeffs(e), sliced.entryCoeffs(e));
}

TEST(Slice, RandomContentIsSliceConsistent)
{
    // Database::random content is a pure function of (seed, entry,
    // plane), so a shard filled independently agrees with the full DB.
    PirParams params = smallParams(4, 2, /*planes=*/2);
    HeContext ctx(params.he);
    Database full = Database::random(ctx, params, 7);
    Database slice = Database::random(ctx, params, 7).slice(2, 4);
    for (u64 e = slice.firstEntry();
         e < slice.firstEntry() + slice.numEntries(); ++e)
        EXPECT_EQ(slice.entryCoeffs(e, 1), full.entryCoeffs(e, 1));
}

// ------------------------------------------------------------- topology

TEST(Shard, RejectsBadTopology)
{
    PirParams params = smallParams(8, 2); // 4 columns
    // Not a power of two.
    EXPECT_THROW(ServerSession(params, 0, 3), std::invalid_argument);
    // More shards than ColTor columns.
    EXPECT_THROW(ServerSession(params, 0, 8), std::invalid_argument);
    // Shard index out of range.
    EXPECT_THROW(ServerSession(params, 4, 4), std::invalid_argument);
    // Zero shards.
    EXPECT_THROW(ServerSession(params, 0, 0), std::invalid_argument);
    // The coordinator surfaces the same validation.
    EXPECT_THROW(ShardCoordinator(params, 3), std::invalid_argument);
    // Valid corner: one shard per column.
    EXPECT_NO_THROW(ServerSession(params, 3, 4));
}

TEST(Shard, ShardSessionAnswersWithItsPartialResponse)
{
    PirParams params = smallParams(8, 2, /*planes=*/2); // 4 columns
    Reference ref(params);
    std::vector<u8> query = ref.client.queryBlob(3);
    auto coord = makeCoordinator(ref, 2);

    // A shard session's answer() is its slice's PartialResponse: the
    // shard index and count come from the slice position, the planes
    // are the slice-local partials the coordinator folds.
    for (u32 s = 0; s < 2; ++s) {
        ServerSession shard(params, s, 2);
        shard.database().fill(contentGenerator(params));
        shard.ingestKeys(ref.client.keyBlob());
        std::vector<u8> blob = shard.answer(query);
        PirPartialResponse p =
            deserializePartialResponse(shard.context(), blob);
        EXPECT_EQ(p.shard, s);
        EXPECT_EQ(p.numShards, 2u);
        EXPECT_EQ(p.planes.size(), 2u);
        EXPECT_EQ(blob, coord->shard(s).answer(query)) << "shard " << s;
    }
}

// ------------------------------------------------- coordinator identity

TEST(Shard, ByteIdenticalAtEveryShardAndThreadCount)
{
    // The acceptance property: coordinator responses equal the
    // single-server blobs at shard counts 1/2/4/8 x thread counts 1/8.
    PirParams params = smallParams(8, 3, /*planes=*/2); // 8 columns
    Reference ref(params);
    std::vector<u64> targets{0, 13, 37, 63};

    ThreadPool::setGlobalThreads(1);
    std::vector<std::vector<u8>> queries, want;
    for (u64 t : targets)
        queries.push_back(ref.client.queryBlob(t));
    for (const auto &q : queries)
        want.push_back(ref.server.answer(q));

    for (u32 shards : {1u, 2u, 4u, 8u}) {
        auto coord = makeCoordinator(ref, shards);
        for (int threads : {1, 8}) {
            ThreadPool::setGlobalThreads(threads);
            for (size_t i = 0; i < queries.size(); ++i)
                EXPECT_EQ(coord->answer(queries[i]), want[i])
                    << shards << " shards, " << threads
                    << " threads, query " << i;
        }
        ThreadPool::setGlobalThreads(1);
    }

    // And the responses decode to the addressed records.
    auto coord = makeCoordinator(ref, 4);
    for (size_t i = 0; i < targets.size(); ++i) {
        auto planes =
            ref.client.decodeResponse(coord->answer(queries[i]));
        ASSERT_EQ(planes.size(), 2u);
        for (int plane = 0; plane < 2; ++plane)
            EXPECT_EQ(planes[plane],
                      dbContent(params, targets[i], plane));
    }
}

TEST(Shard, BatchByteIdenticalAcrossThreadCounts)
{
    PirParams params = smallParams(8, 2, /*planes=*/2);
    Reference ref(params);
    std::vector<std::vector<u8>> queries;
    for (u64 t : {2ull, 11ull, 29ull})
        queries.push_back(ref.client.queryBlob(t));

    auto coord = makeCoordinator(ref, 4);
    // A batch is parallelFor over answer(); the coordinator's own
    // shard fan-out nests inside it.
    auto answerAll = [&] {
        std::vector<std::vector<u8>> out(queries.size());
        parallelFor(0, queries.size(),
                    [&](u64 i) { out[i] = coord->answer(queries[i]); });
        return out;
    };
    ThreadPool::setGlobalThreads(1);
    auto seq = answerAll();
    ThreadPool::setGlobalThreads(8);
    auto par = answerAll();
    ThreadPool::setGlobalThreads(1);

    ASSERT_EQ(seq.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(seq[i], par[i]) << "query " << i;
        EXPECT_EQ(seq[i], ref.server.answer(queries[i])) << "query " << i;
    }
}

// --------------------------------------------------- hostile partials

TEST(Shard, FoldPartialsRejectsHostileSets)
{
    PirParams params = smallParams(8, 2, /*planes=*/2); // 4 columns
    Reference ref(params);
    auto coord = makeCoordinator(ref, 4);
    std::vector<u8> query = ref.client.queryBlob(9);

    std::vector<std::vector<u8>> partials;
    for (u32 s = 0; s < 4; ++s)
        partials.push_back(coord->shard(s).answer(query));

    // The complete, honest set folds to the single-server answer.
    EXPECT_EQ(coord->foldPartials(query, partials),
              ref.server.answer(query));

    // Short set.
    std::vector<std::vector<u8>> three(partials.begin(),
                                       partials.end() - 1);
    EXPECT_THROW((void)coord->foldPartials(query, three),
                 SerializeError);

    // Duplicate shard index (a shard's blob sent twice).
    auto dup = partials;
    dup[2] = dup[1];
    EXPECT_THROW((void)coord->foldPartials(query, dup),
                 SerializeError);

    // Partial from a different deployment width.
    auto two = makeCoordinator(ref, 2);
    auto wrong_width = partials;
    wrong_width[0] = two->shard(0).answer(query);
    EXPECT_THROW((void)coord->foldPartials(query, wrong_width),
                 SerializeError);

    // Plane count disagreeing with the params.
    PirPartialResponse p =
        deserializePartialResponse(coord->context(), partials[3]);
    p.planes.pop_back();
    auto short_planes = partials;
    short_planes[3] = serializePartialResponse(coord->context(), p);
    EXPECT_THROW((void)coord->foldPartials(query, short_planes),
                 SerializeError);

    // Partial built under mismatched ring params.
    PirParams big = smallParams(8, 2, /*planes=*/2);
    big.he.n = 512;
    Reference big_ref(big, 5);
    ShardCoordinator big_coord(big_ref.client.paramsBlob(), 4);
    big_coord.fillDatabase(contentGenerator(big));
    big_coord.ingestKeys(big_ref.client.keyBlob());
    auto alien = partials;
    alien[1] = big_coord.shard(1).answer(big_ref.client.queryBlob(9));
    EXPECT_THROW((void)coord->foldPartials(query, alien),
                 SerializeError);
}

TEST(Shard, FoldBeforeKeyIngestThrows)
{
    PirParams params = smallParams(8, 2);
    Reference ref(params);
    ShardCoordinator coord(ref.client.paramsBlob(), 2);
    coord.fillDatabase(contentGenerator(params));
    EXPECT_THROW((void)coord.answer(ref.client.queryBlob(0)),
                 std::logic_error);
}

// ------------------------------------------------------------ counters

TEST(Shard, SummaryAggregatesAcrossShardsCumulatively)
{
    PirParams params = smallParams(8, 3, /*planes=*/2); // 64 records
    Reference ref(params);
    const u32 kShards = 4;
    auto coord = makeCoordinator(ref, kShards);

    std::vector<u8> q1 = ref.client.queryBlob(3);
    std::vector<u8> q2 = ref.client.queryBlob(40);
    std::vector<u8> r1 = coord->answer(q1);
    (void)coord->answer(q2);

    ShardCountersSummary s = coord->summary();
    EXPECT_EQ(s.numShards, kShards);
    EXPECT_EQ(s.queries, 2u);

    // RowSel work: summed over shards, every record of every plane is
    // touched exactly once per query — same total as one big server.
    u64 per_query_macs =
        params.numEntries() * static_cast<u64>(params.planes);
    EXPECT_EQ(s.shardOps.plainMulAccs, 2 * per_query_macs);

    // Tournament folds: shards fold their local levels, the
    // coordinator the last log2(kShards); together exactly the
    // monolithic 2^d - 1 folds per plane. Each engine assembles only
    // the selectors for the levels it folds (ell external products per
    // level per query), so total selector work equals the monolithic
    // d * ell plus the broadcast's (kShards - 1)-fold duplication of
    // the local levels.
    u64 ell = params.he.ellRgsw;
    u64 cols = u64{1} << params.d;
    int local_levels = params.d - log2Exact(kShards);
    u64 local_folds = (cols / kShards - 1) * params.planes;
    u64 final_folds = (kShards - 1) * static_cast<u64>(params.planes);
    EXPECT_EQ(s.shardOps.externalProducts,
              2 * kShards * (local_levels * ell + local_folds));
    EXPECT_EQ(s.foldOps.externalProducts,
              2 * (log2Exact(kShards) * ell + final_folds));
    u64 monolithic_folds = (cols - 1) * static_cast<u64>(params.planes);
    u64 duplicated_sel = (kShards - 1) * local_levels * ell;
    EXPECT_EQ(s.totalOps().externalProducts,
              2 * (static_cast<u64>(params.d) * ell + duplicated_sel +
                   monolithic_folds));

    // Traffic: every query reaches every shard; one partial comes back
    // per shard per query.
    EXPECT_EQ(s.broadcastBytes,
              kShards * (q1.size() + q2.size()));
    std::vector<u8> partial =
        coord->shard(0).answer(q1); // same size every shard
    EXPECT_EQ(s.gatherBytes, 2 * kShards * partial.size());

    // Per-shard traffic counters are cumulative too.
    ShardTraffic t = coord->shard(0).traffic();
    EXPECT_EQ(t.queries, 3u); // 2 coordinated + 1 direct above
    EXPECT_EQ(t.responseBytes, 3 * partial.size());
    (void)r1;
}

// ---------------------------------------------------------- dispatcher

TEST(Dispatcher, FullBatchesDispatchWithoutWaitingForTheWindow)
{
    PirParams params = smallParams(8, 2, /*planes=*/1);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);

    SchedulerConfig cfg;
    cfg.windowSec = 30.0; // Never expires inside the test.
    cfg.maxBatch = 2;
    ShardDispatcher dispatcher(cfg);

    std::vector<u64> targets{1, 9, 17, 25};
    std::vector<std::future<std::vector<u8>>> futures;
    for (u64 t : targets)
        futures.push_back(submitFuture(dispatcher, ref.client.queryBlob(t),
                                       viaCoordinator(*coord)));
    for (size_t i = 0; i < targets.size(); ++i) {
        auto planes =
            ref.client.decodeResponse(futures[i].get());
        EXPECT_EQ(planes[0], dbContent(params, targets[i], 0))
            << "query " << i;
    }
    // Promises resolve before the stats update; drain() orders both.
    dispatcher.drain();

    DispatcherStats st = dispatcher.stats();
    EXPECT_EQ(st.submitted, 4u);
    EXPECT_EQ(st.completed, 4u);
    EXPECT_EQ(st.batches, 2u);
    EXPECT_EQ(st.maxBatch, 2u);
    EXPECT_EQ(st.fullBatches, 2u);
}

TEST(Dispatcher, WindowExpiryDispatchesAPartialBatch)
{
    PirParams params = smallParams(8, 2, /*planes=*/1);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);

    SchedulerConfig cfg;
    cfg.windowSec = 0.02;
    cfg.maxBatch = 64; // Never fills; only the window can dispatch.
    ShardDispatcher dispatcher(cfg);

    auto f0 = submitFuture(dispatcher, ref.client.queryBlob(5),
                           viaCoordinator(*coord));
    auto f1 = submitFuture(dispatcher, ref.client.queryBlob(6),
                           viaCoordinator(*coord));
    EXPECT_EQ(ref.client.decodeResponse(f0.get())[0],
              dbContent(params, 5, 0));
    EXPECT_EQ(ref.client.decodeResponse(f1.get())[0],
              dbContent(params, 6, 0));
    dispatcher.drain();

    DispatcherStats st = dispatcher.stats();
    EXPECT_EQ(st.completed, 2u);
    EXPECT_GE(st.batches, 1u);
    EXPECT_EQ(st.fullBatches, 0u);
}

TEST(Dispatcher, ResponsesMatchDirectCoordinatorAnswers)
{
    PirParams params = smallParams(8, 2, /*planes=*/2);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 4);

    std::vector<u64> targets{0, 7, 21, 31};
    std::vector<std::vector<u8>> queries, direct;
    for (u64 t : targets)
        queries.push_back(ref.client.queryBlob(t));
    for (const auto &q : queries)
        direct.push_back(ref.server.answer(q));

    SchedulerConfig cfg;
    cfg.windowSec = 0.005;
    cfg.maxBatch = 3;
    ShardDispatcher dispatcher(cfg);
    std::vector<std::future<std::vector<u8>>> futures;
    for (const auto &q : queries)
        futures.push_back(
            submitFuture(dispatcher, q, viaCoordinator(*coord)));
    for (size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(futures[i].get(), direct[i]) << "query " << i;
}

TEST(Dispatcher, MalformedQueryFailsItsBatchWithSerializeError)
{
    PirParams params = smallParams(4, 1);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);

    SchedulerConfig cfg;
    cfg.windowSec = 0.005;
    cfg.maxBatch = 8;
    ShardDispatcher dispatcher(cfg);
    auto bad = submitFuture(dispatcher, std::vector<u8>(32, 0xA5),
                            viaCoordinator(*coord));
    auto good = submitFuture(dispatcher, ref.client.queryBlob(3),
                             viaCoordinator(*coord));
    EXPECT_THROW((void)bad.get(), SerializeError);
    // Each query has its own error boundary: the batch-mate is served.
    EXPECT_EQ(ref.client.decodeResponse(good.get())[0],
              dbContent(params, 3, 0));
}

// The TSan CI stage (scripts/ci.sh, -L thread) runs this suite
// instrumented: concurrent submitters race drain() and then shutdown,
// exercising every mu_/wake_/idle_ edge the annotations in
// shard/dispatcher.hh describe.
TEST(Dispatcher, ConcurrentSubmitDrainShutdownStress)
{
    PirParams params = smallParams(4, 1);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 6;
    // Query blobs are built up front: ClientSession is not a shared
    // object under test here, the dispatcher is.
    std::vector<std::vector<u8>> blobs;
    std::vector<u64> targets;
    for (int i = 0; i < kThreads * kPerThread; ++i) {
        targets.push_back(static_cast<u64>(i) % params.numEntries());
        blobs.push_back(ref.client.queryBlob(targets.back()));
    }

    SchedulerConfig cfg;
    cfg.windowSec = 0.001;
    cfg.maxBatch = 3;
    std::vector<std::future<std::vector<u8>>> futures(blobs.size());
    {
        ShardDispatcher dispatcher(cfg);
        std::vector<std::thread> submitters;
        for (int t = 0; t < kThreads; ++t) {
            submitters.emplace_back([&, t] {
                for (int i = 0; i < kPerThread; ++i) {
                    size_t idx = static_cast<size_t>(t) * kPerThread +
                                 static_cast<size_t>(i);
                    futures[idx] = submitFuture(dispatcher, blobs[idx],
                                                viaCoordinator(*coord));
                }
            });
        }
        // A drainer races the submitters: drain() must tolerate more
        // work arriving while it waits and still return on quiescence.
        std::thread drainer([&] {
            for (int i = 0; i < 3; ++i)
                dispatcher.drain();
        });
        for (auto &th : submitters)
            th.join();
        drainer.join();
        dispatcher.drain();
        DispatcherStats st = dispatcher.stats();
        EXPECT_EQ(st.submitted,
                  static_cast<u64>(kThreads) * kPerThread);
        EXPECT_EQ(st.completed, st.submitted);
        // Destructor shutdown races nothing: all work is done, but the
        // stop path still has to wake and join the worker.
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        auto planes = ref.client.decodeResponse(futures[i].get());
        EXPECT_EQ(planes[0], dbContent(params, targets[i], 0))
            << "query " << i;
    }
}

TEST(Dispatcher, DestructorFlushesQueuedQueries)
{
    PirParams params = smallParams(4, 1);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);

    std::future<std::vector<u8>> fut;
    {
        SchedulerConfig cfg;
        cfg.windowSec = 30.0; // Would outlive the test...
        cfg.maxBatch = 64;
        ShardDispatcher dispatcher(cfg);
        fut = submitFuture(dispatcher, ref.client.queryBlob(2),
                           viaCoordinator(*coord));
        // ...but shutdown closes the window immediately.
    }
    EXPECT_EQ(ref.client.decodeResponse(fut.get())[0],
              dbContent(params, 2, 0));
}
