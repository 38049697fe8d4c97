/**
 * @file
 * Sharded serving: slice engines, coordinator fold correctness,
 * hostile partial rejection, and the live waiting-window dispatcher.
 *
 * The load-bearing property is byte-identity: for the same query, the
 * shard coordinator's Response blobs must equal the single-server
 * ServerSession::answer() blobs at every shard count (1/2/4/8) and
 * thread count (1/8). Everything else — slice engines, the
 * registry's op and traffic counts, topology validation, dispatcher
 * batching — supports that deployment.
 */

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "common/thread_pool.hh"
#include "counter_delta.hh"
#include "fixtures.hh"

using namespace ive;
namespace names = obs::names;

// ------------------------------------------------------------- topology

TEST(Shard, RejectsBadTopology)
{
    PirParams params = smallParams(8, 2); // 4 columns
    ClientSession client(params, 3);
    HeContext ctx(params.he);
    Database db(ctx, params);
    auto keys = std::make_shared<const PirPublicKeys>(
        deserializePublicKeys(ctx, params, client.keyBlob()));
    auto engine = [&](u32 shard, u32 num_shards) {
        return PirServer(ctx, params, &db, keys, shard, num_shards);
    };
    // Not a power of two.
    EXPECT_THROW(engine(0, 3), std::invalid_argument);
    // More shards than ColTor columns.
    EXPECT_THROW(engine(0, 8), std::invalid_argument);
    // Shard index out of range.
    EXPECT_THROW(engine(4, 4), std::invalid_argument);
    // Zero shards.
    EXPECT_THROW(engine(0, 0), std::invalid_argument);
    // The coordinator surfaces the same validation before any keys.
    EXPECT_THROW(ShardCoordinator(params, 3), std::invalid_argument);
    // Valid corner: one shard per column.
    EXPECT_NO_THROW(engine(3, 4));
}

TEST(Shard, SliceEngineAnswersWithItsPartialResponse)
{
    PirParams params = smallParams(8, 2, /*planes=*/2); // 4 columns
    Reference ref(params);
    std::vector<u8> query = ref.client.queryBlob(3);
    auto coord = makeCoordinator(ref, 2);

    // A slice engine's answerQuery is its slice's PartialResponse: the
    // shard index and count come from the engine, the planes are the
    // slice-local partials the coordinator folds.
    HeContext ctx(params.he);
    Database db(ctx, params);
    db.fill(contentGenerator(params));
    auto keys = std::make_shared<const PirPublicKeys>(
        deserializePublicKeys(ctx, params, ref.client.keyBlob()));
    for (u32 s = 0; s < 2; ++s) {
        PirServer engine(ctx, params, &db, keys, s, 2);
        EXPECT_EQ(engine.shard(), s);
        EXPECT_EQ(engine.numShards(), 2u);
        std::vector<u8> blob = answerQuery(engine, query);
        PirPartialResponse p = deserializePartialResponse(ctx, blob);
        EXPECT_EQ(p.shard, s);
        EXPECT_EQ(p.numShards, 2u);
        EXPECT_EQ(p.planes.size(), 2u);
        EXPECT_EQ(blob, coord->answerSlice(s, query)) << "shard " << s;
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
        partials.push_back(coord->answerSlice(s, query));

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
    wrong_width[0] = two->answerSlice(0, query);
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
    big_coord.database().fill(contentGenerator(big));
    big_coord.ingestKeys(big_ref.client.keyBlob());
    auto alien = partials;
    alien[1] = big_coord.answerSlice(1, big_ref.client.queryBlob(9));
    EXPECT_THROW((void)coord->foldPartials(query, alien),
                 SerializeError);
}

TEST(Shard, FoldBeforeKeyIngestThrows)
{
    PirParams params = smallParams(8, 2);
    Reference ref(params);
    ShardCoordinator coord(ref.client.paramsBlob(), 2);
    coord.database().fill(contentGenerator(params));
    std::vector<u8> query = ref.client.queryBlob(0);
    EXPECT_THROW((void)coord.answer(query), std::logic_error);

    // A complete partial set from a keyed twin: the fold itself still
    // needs this coordinator's keys.
    auto keyed = makeCoordinator(ref, 2);
    std::vector<std::vector<u8>> partials{keyed->answerSlice(0, query),
                                          keyed->answerSlice(1, query)};
    EXPECT_THROW((void)coord.foldPartials(query, partials),
                 std::logic_error);
}

// ------------------------------------------------------------ counters

TEST(Shard, RegistryCountsShardAndFoldWork)
{
    PirParams params = smallParams(8, 3, /*planes=*/2); // 64 records
    Reference ref(params);
    const u32 kShards = 4;
    auto coord = makeCoordinator(ref, kShards);
    ASSERT_EQ(coord->numShards(), kShards);
    std::vector<std::vector<u8>> queries{ref.client.queryBlob(3),
                                         ref.client.queryBlob(40)};
    const u64 nq = queries.size();

    // Shard work: the gather step, slice by slice. RowSel touches every
    // record of every plane exactly once per query, summed over slices
    // — the same total as one big server. Each slice engine assembles
    // only the selectors for the levels it folds (ell external
    // products per level) and folds its local columns.
    u64 ell = params.he.ellRgsw;
    u64 cols = u64{1} << params.d;
    int local_levels = params.d - log2Exact(kShards);
    u64 local_folds = (cols / kShards - 1) * params.planes;
    CounterDelta shard_macs(names::kOpsPlainMulAcc);
    CounterDelta shard_ext(names::kOpsExternalProduct);
    std::vector<std::vector<std::vector<u8>>> partials(nq);
    for (u64 q = 0; q < nq; ++q)
        for (u32 s = 0; s < kShards; ++s)
            partials[q].push_back(coord->answerSlice(s, queries[q]));
    const u64 shard_ext_n = shard_ext();
    EXPECT_EQ(shard_macs(),
              nq * params.numEntries() * static_cast<u64>(params.planes));
    EXPECT_EQ(shard_ext_n,
              nq * kShards * (local_levels * ell + local_folds));

    // Fold work: the coordinator's selectors for the last log2(kShards)
    // levels and the (kShards - 1) final folds per plane; no RowSel.
    // Gather traffic is one partial (same size on every slice) per
    // slice per query.
    u64 final_folds = (kShards - 1) * static_cast<u64>(params.planes);
    CounterDelta fold_macs(names::kOpsPlainMulAcc);
    CounterDelta fold_ext(names::kOpsExternalProduct);
    CounterDelta folded(names::kShardQueries);
    CounterDelta gathered(names::kShardGatherBytes);
    std::vector<std::vector<u8>> folds;
    for (u64 q = 0; q < nq; ++q)
        folds.push_back(coord->foldPartials(queries[q], partials[q]));
    const u64 fold_ext_n = fold_ext();
    EXPECT_EQ(fold_macs(), 0u);
    EXPECT_EQ(fold_ext_n,
              nq * (log2Exact(kShards) * ell + final_folds));
    EXPECT_EQ(folded(), nq);
    EXPECT_EQ(gathered(), nq * kShards * partials[0][0].size());

    // answer() is broadcast + gather + fold: the fold's bytes, every
    // query reaching every slice, and shard plus fold work — the
    // monolithic d * ell selectors and 2^d - 1 folds per plane, plus
    // the broadcast's (kShards - 1)-fold duplication of the local
    // selector levels.
    u64 monolithic_folds = (cols - 1) * static_cast<u64>(params.planes);
    u64 duplicated_sel = (kShards - 1) * local_levels * ell;
    CounterDelta total_ext(names::kOpsExternalProduct);
    CounterDelta answered(names::kShardQueries);
    CounterDelta broadcast(names::kShardBroadcastBytes);
    for (u64 q = 0; q < nq; ++q)
        EXPECT_EQ(coord->answer(queries[q]), folds[q]) << "query " << q;
    EXPECT_EQ(total_ext(), shard_ext_n + fold_ext_n);
    EXPECT_EQ(total_ext(),
              nq * (static_cast<u64>(params.d) * ell + duplicated_sel +
                    monolithic_folds));
    EXPECT_EQ(answered(), nq);
    EXPECT_EQ(broadcast(),
              kShards * (queries[0].size() + queries[1].size()));
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

    CounterDelta submitted(names::kDispatchSubmitted);
    CounterDelta completed(names::kDispatchCompleted);
    CounterDelta batches(names::kDispatchBatches);
    obs::Histogram &batch_size =
        obs::Registry::global().histogram(names::kDispatchBatchSize);
    const obs::HistogramSnapshot sizes0 = batch_size.snapshot();

    std::vector<u64> targets{1, 9, 17, 25};
    std::vector<std::future<std::vector<u8>>> futures;
    for (u64 t : targets)
        futures.push_back(submitFuture(dispatcher, ref.client.queryBlob(t),
                                       viaCoordinator(*coord)));
    for (size_t i = 0; i < targets.size(); ++i) {
        // Only full batches can dispatch before the 30 s window.
        ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(10)),
                  std::future_status::ready)
            << "query " << i;
        auto planes =
            ref.client.decodeResponse(futures[i].get());
        EXPECT_EQ(planes[0], dbContent(params, targets[i], 0))
            << "query " << i;
    }
    // Callbacks fire before the completion count; drain() orders both.
    dispatcher.drain();

    EXPECT_EQ(submitted(), 4u);
    EXPECT_EQ(completed(), 4u);
    EXPECT_EQ(batches(), 2u);
    // Two batches holding four queries: each is full at maxBatch = 2.
    const obs::HistogramSnapshot sizes = batch_size.snapshot();
    EXPECT_EQ(sizes.count - sizes0.count, 2u);
    EXPECT_EQ(sizes.sum - sizes0.sum, 4u);
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
    CounterDelta completed(names::kDispatchCompleted);
    CounterDelta batches(names::kDispatchBatches);

    auto f0 = submitFuture(dispatcher, ref.client.queryBlob(5),
                           viaCoordinator(*coord));
    auto f1 = submitFuture(dispatcher, ref.client.queryBlob(6),
                           viaCoordinator(*coord));
    EXPECT_EQ(ref.client.decodeResponse(f0.get())[0],
              dbContent(params, 5, 0));
    EXPECT_EQ(ref.client.decodeResponse(f1.get())[0],
              dbContent(params, 6, 0));
    dispatcher.drain();

    EXPECT_EQ(completed(), 2u);
    EXPECT_GE(batches(), 1u);
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
        CounterDelta submitted(names::kDispatchSubmitted);
        CounterDelta completed(names::kDispatchCompleted);
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
        EXPECT_EQ(submitted(), static_cast<u64>(kThreads) * kPerThread);
        EXPECT_EQ(completed(), submitted());
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
