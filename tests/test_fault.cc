/**
 * @file
 * Fault tolerance: deterministic failpoints, replica failover,
 * admission control, and the submit-vs-shutdown race.
 *
 * The load-bearing properties:
 *
 *   - failpoint triggers are deterministic (the same evaluations
 *     fire the same way), so every failure test here replays
 *     identically;
 *   - failover never changes response bytes: every replica of a slice
 *     computes the identical partial, so a retry after an injected
 *     error, timeout, or hang yields the exact monolithic-server blob;
 *   - when a slice's whole replica group is down, the coordinator
 *     degrades to a typed ive::ShardUnavailable — never a hang, never
 *     an abort — and recovers as soon as the fault clears;
 *   - the dispatcher sheds deterministically at its high-water mark
 *     with ive::Overloaded, drops window-expired queries with
 *     DeadlineExceeded, and a submit racing shutdown always resolves
 *     its future with a value or a typed error (satellite: no broken
 *     promise, no hang).
 *
 * Retries, failovers, sheds and expiries are read as obs::Registry
 * deltas (counter_delta.hh): the numbers a scrape of the process shows.
 *
 * The TSan CI stage (scripts/ci.sh, -L thread) runs this suite
 * instrumented; the --faults stage re-runs it under an env-armed
 * IVE_FAILPOINTS recipe.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <thread>

#include "common/failpoint.hh"
#include "common/thread_pool.hh"
#include "counter_delta.hh"
#include "fixtures.hh"

using namespace ive;
namespace names = obs::names;

namespace {

/** Every fault test starts and ends with a disarmed process, so
 *  env-armed recipes (the --faults CI stage) and earlier tests never
 *  leak triggers across test bodies. */
class Fault : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fail::disarmAll();
        ThreadPool::setGlobalThreads(1); // Deterministic eval order.
    }

    void
    TearDown() override
    {
        fail::disarmAll();
        ThreadPool::setGlobalThreads(1);
    }
};

using FaultShard = Fault;
using FaultDispatch = Fault;

} // namespace

// ----------------------------------------------------------- triggers

TEST_F(Fault, NthFiresExactlyOnThatHit)
{
    fail::Failpoint &fp = fail::point("test.trigger.nth");
    fp.arm(fail::Trigger::nth(3));
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(static_cast<bool>(fp.evaluate()));
    EXPECT_EQ(fired,
              (std::vector<bool>{false, false, true, false, false,
                                 false}));
    EXPECT_EQ(fp.hits(), 6u);
    EXPECT_EQ(fp.fires(), 1u);
}

TEST_F(Fault, EveryFiresPeriodically)
{
    fail::Failpoint &fp = fail::point("test.trigger.every");
    fp.arm(fail::Trigger::every(2));
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(static_cast<bool>(fp.evaluate()));
    EXPECT_EQ(fired,
              (std::vector<bool>{false, true, false, true, false,
                                 true}));
    EXPECT_EQ(fp.fires(), 3u);
}

TEST_F(Fault, LimitStopsFiringButKeepsCounting)
{
    fail::Failpoint &fp = fail::point("test.trigger.limit");
    fp.arm(fail::Trigger::always().withLimit(2));
    int fires = 0;
    for (int i = 0; i < 5; ++i)
        fires += fp.evaluate() ? 1 : 0;
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(fp.hits(), 5u); // Hit counting survives the limit.
    EXPECT_EQ(fp.fires(), 2u);
}

TEST_F(Fault, ScopeFilterCountsOnlyMatchingEvaluations)
{
    fail::Failpoint &fp = fail::point("test.trigger.scope");
    fp.arm(fail::Trigger::nth(2).withScope(7));
    EXPECT_FALSE(fp.evaluate(3)); // Wrong scope: no hit, no fire.
    EXPECT_FALSE(fp.evaluate(3));
    EXPECT_FALSE(fp.evaluate(7)); // Matching hit #1.
    EXPECT_TRUE(fp.evaluate(7));  // Matching hit #2 fires.
    EXPECT_EQ(fp.hits(), 2u);
}

TEST_F(Fault, ArgIsDeliveredAndDisarmedEvaluationsAreFree)
{
    fail::Failpoint &fp = fail::point("test.trigger.arg");
    fp.arm(fail::Trigger::always().withArg(123));
    fail::Hit h = fp.evaluate();
    EXPECT_TRUE(h);
    EXPECT_EQ(h.arg, 123u);
    fp.disarm();
    EXPECT_FALSE(fp.evaluate());
    // Disarmed evaluations don't count; the armed-phase counters stay
    // readable for post-mortems (only arm() resets them).
    EXPECT_EQ(fp.hits(), 1u);
}

TEST_F(Fault, ReArmingResetsCountersAndReplays)
{
    fail::Failpoint &fp = fail::point("test.trigger.rearm");
    fp.arm(fail::Trigger::nth(2));
    (void)fp.evaluate();
    (void)fp.evaluate();
    EXPECT_EQ(fp.fires(), 1u);
    fp.arm(fail::Trigger::nth(2)); // Same trigger, fresh counters.
    EXPECT_EQ(fp.hits(), 0u);
    EXPECT_FALSE(fp.evaluate());
    EXPECT_TRUE(fp.evaluate()); // Replays identically.
}

// --------------------------------------------------------------- specs

TEST_F(Fault, SpecArmsEveryEntryWithItsOptions)
{
    fail::armFromSpec("test.spec.a=nth:2,arg=7;"
                      "test.spec.b=always,limit=1,at=3");
    std::vector<std::string> armed = fail::armedPoints();
    EXPECT_TRUE(std::find(armed.begin(), armed.end(), "test.spec.a") !=
                armed.end());
    EXPECT_TRUE(std::find(armed.begin(), armed.end(), "test.spec.b") !=
                armed.end());

    fail::Failpoint &a = fail::point("test.spec.a");
    EXPECT_FALSE(a.evaluate());
    fail::Hit h = a.evaluate();
    EXPECT_TRUE(h);
    EXPECT_EQ(h.arg, 7u);

    fail::Failpoint &b = fail::point("test.spec.b");
    EXPECT_FALSE(b.evaluate(1)); // at=3 filters other scopes.
    EXPECT_TRUE(b.evaluate(3));
    EXPECT_FALSE(b.evaluate(3)); // limit=1 exhausted.
}

TEST_F(Fault, MalformedSpecThrowsAndArmsNothing)
{
    for (const char *bad : {
             "test.spec.bad",               // No '=' in the entry.
             "=always",                     // Empty name.
             "test.spec.bad=wat",           // Unknown mode.
             "test.spec.bad=nth",           // Missing parameter.
             "test.spec.bad=nth:two",       // Non-numeric parameter.
             "test.spec.bad=nth:0",         // 1-based index.
             "test.spec.bad=every:0",       // Zero period.
             "test.spec.bad=prob:1.5:9",    // Unknown mode too.
             "test.spec.bad=always,zap=1",  // Unknown option.
             "test.spec.bad=always,arg",    // Option without value.
             // A valid head must not arm when the tail is malformed.
             "test.spec.good=always;test.spec.bad=wat",
         }) {
        EXPECT_THROW(fail::armFromSpec(bad), std::invalid_argument)
            << bad;
        EXPECT_TRUE(fail::armedPoints().empty()) << bad;
    }
}

TEST_F(Fault, OffEntryDisarmsAnArmedPoint)
{
    fail::armFromSpec("test.spec.off=always");
    EXPECT_TRUE(fail::point("test.spec.off").armed());
    fail::armFromSpec("test.spec.off=off");
    EXPECT_FALSE(fail::point("test.spec.off").armed());
    EXPECT_TRUE(fail::armedPoints().empty());
}

TEST_F(Fault, EnvRecipeAppliesViaArmFromEnv)
{
    // The standard chaos recipe the --faults CI stage exports.
    ASSERT_EQ(setenv("IVE_FAILPOINTS",
                     "test.env.delay=every:3,arg=5;"
                     "test.env.error=nth:2,at=1",
                     /*overwrite=*/1),
              0);
    fail::armFromEnv();
    unsetenv("IVE_FAILPOINTS");

    EXPECT_TRUE(fail::point("test.env.delay").armed());
    EXPECT_TRUE(fail::point("test.env.error").armed());
    fail::Failpoint &delay = fail::point("test.env.delay");
    EXPECT_FALSE(delay.evaluate());
    EXPECT_FALSE(delay.evaluate());
    fail::Hit h = delay.evaluate();
    EXPECT_TRUE(h);
    EXPECT_EQ(h.arg, 5u);
}

// ------------------------------------------------------------- backoff

TEST_F(Fault, BackoffIsCappedExponential)
{
    FailoverConfig fo;
    fo.backoffBaseSec = 0.001;
    fo.backoffCapSec = 0.050;
    EXPECT_DOUBLE_EQ(backoffDelaySec(fo, 0), 0.001);
    EXPECT_DOUBLE_EQ(backoffDelaySec(fo, 1), 0.002);
    EXPECT_DOUBLE_EQ(backoffDelaySec(fo, 3), 0.008);
    // The cap holds no matter how many retries accumulate.
    for (u32 r = 0; r < 64; ++r) {
        EXPECT_LE(backoffDelaySec(fo, r), fo.backoffCapSec);
        if (r > 0)
            EXPECT_GE(backoffDelaySec(fo, r), backoffDelaySec(fo, r - 1));
    }
    EXPECT_DOUBLE_EQ(backoffDelaySec(fo, 63), fo.backoffCapSec);
}

// ------------------------------------------------------ shard failover

TEST_F(FaultShard, DelayInjectionKeepsBytesIdentical)
{
    PirParams params = smallParams(8, 2);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);
    std::vector<u8> query = ref.client.queryBlob(9);
    std::vector<u8> want = ref.server.answer(query);

    fail::armFromSpec("shard.answer.delay=every:1,arg=5,limit=4");
    EXPECT_EQ(coord->answer(query), want);
    EXPECT_GE(fail::point("shard.answer.delay").fires(), 2u);
}

TEST_F(FaultShard, ErrorFailoverIsByteIdentical)
{
    PirParams params = smallParams(8, 2, /*planes=*/2);
    Reference ref(params);
    FailoverConfig fo;
    fo.replicas = 2;
    fo.backoffBaseSec = 1e-4;
    fo.backoffCapSec = 1e-3;
    auto coord = makeCoordinator(ref, 2, fo);
    std::vector<u8> query = ref.client.queryBlob(17);
    std::vector<u8> want = ref.server.answer(query);

    // The first replica call in the broadcast fails once; its slice
    // fails over to the sibling replica, which computes the identical
    // partial — the response bytes cannot tell the difference.
    CounterDelta retries(names::kShardRetries);
    CounterDelta failovers(names::kFailovers);
    CounterDelta misses(names::kDeadlineMissShard);
    fail::point("shard.answer.error").arm(fail::Trigger::nth(1));
    EXPECT_EQ(coord->answer(query), want);

    EXPECT_EQ(coord->numReplicas(), 2u);
    EXPECT_EQ(retries(), 1u);
    EXPECT_EQ(failovers(), 1u);
    EXPECT_EQ(misses(), 0u);
}

TEST_F(FaultShard, ReplicasServeOneSharedStore)
{
    PirParams params = smallParams(8, 2, /*planes=*/2); // 32 records
    Reference ref(params);
    FailoverConfig fo;
    fo.replicas = 2;
    fo.backoffBaseSec = 1e-4;
    fo.backoffCapSec = 1e-3;
    auto coord = makeCoordinator(ref, 2, fo);

    // Rewrite one record after the engines exist. Record 21 sits in
    // column 2, so in slice 1 of 2.
    const u64 target = 21;
    const u32 slice = 1;
    std::vector<std::vector<u64>> fresh;
    for (int plane = 0; plane < params.planes; ++plane) {
        std::vector<u64> coeffs(params.he.n);
        for (u64 j = 0; j < params.he.n; ++j)
            coeffs[j] = (j * 5 + 3 + static_cast<u64>(plane)) &
                        (params.he.plainModulus - 1);
        coord->database().setEntry(target, plane, coeffs);
        fresh.push_back(std::move(coeffs));
    }

    // Replica 0 of the record's slice fails once, so replica 1 answers
    // for it. The new content comes back: every engine reads the
    // coordinator's one Database, not a copy taken at fill time.
    CounterDelta failovers(names::kFailovers);
    fail::point("shard.answer.error")
        .arm(fail::Trigger::nth(1).withScope(slice));
    std::vector<std::vector<u64>> planes = ref.client.decodeResponse(
        coord->answer(ref.client.queryBlob(target)));
    EXPECT_EQ(planes, fresh);
    EXPECT_EQ(fail::point("shard.answer.error").fires(), 1u);
    EXPECT_EQ(failovers(), 1u);
}

TEST_F(FaultShard, TimeoutFailoverIsByteIdentical)
{
    PirParams params = smallParams(8, 2);
    Reference ref(params);
    std::vector<u8> query = ref.client.queryBlob(5);

    // Calibrate the per-shard deadline to this build/machine: a clean
    // answer must fit with a wide margin (TSan/ASan slow the pipeline
    // by an order of magnitude), only the injected delay may miss it.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<u8> want = ref.server.answer(query);
    double baseline_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    FailoverConfig fo;
    fo.replicas = 2;
    fo.shardDeadlineSec = std::max(0.1, 8.0 * baseline_sec);
    fo.backoffBaseSec = 1e-4;
    fo.backoffCapSec = 1e-3;
    auto coord = makeCoordinator(ref, 1, fo);

    // Replica 0's only answer sleeps past the per-shard deadline; the
    // watchdog abandons it (the coordinator destructor joins the
    // parked thread) and the slice fails over to replica 1.
    auto delay_ms =
        static_cast<u64>(fo.shardDeadlineSec * 1000.0 * 2.0) + 100;
    CounterDelta retries(names::kShardRetries);
    CounterDelta failovers(names::kFailovers);
    CounterDelta misses(names::kDeadlineMissShard);
    fail::point("shard.answer.delay")
        .arm(fail::Trigger::nth(1).withArg(delay_ms));
    EXPECT_EQ(coord->answer(query), want);

    EXPECT_EQ(misses(), 1u);
    EXPECT_EQ(retries(), 1u);
    EXPECT_EQ(failovers(), 1u);
}

TEST_F(FaultShard, AllReplicasDownDegradesToShardUnavailable)
{
    PirParams params = smallParams(8, 2);
    Reference ref(params);
    FailoverConfig fo;
    fo.replicas = 2;
    fo.backoffBaseSec = 1e-4;
    fo.backoffCapSec = 1e-3;
    auto coord = makeCoordinator(ref, 1, fo);
    std::vector<u8> query = ref.client.queryBlob(3);
    std::vector<u8> want = ref.server.answer(query);

    CounterDelta retries(names::kShardRetries);
    CounterDelta failovers(names::kFailovers);
    fail::point("shard.answer.error").arm(fail::Trigger::always());
    EXPECT_THROW((void)coord->answer(query), ShardUnavailable);

    // The budget: 2 * replicas attempts; replicas rotate 0,1,0,1
    // so every retry is also a failover.
    EXPECT_EQ(retries(), 3u);
    EXPECT_EQ(failovers(), 3u);

    // The outage is not sticky: the moment the fault clears, the same
    // coordinator answers byte-identically again.
    fail::disarmAll();
    EXPECT_EQ(coord->answer(query), want);
}

TEST_F(FaultShard, HangSelfReleasesAtItsCap)
{
    PirParams params = smallParams(8, 2);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);
    std::vector<u8> query = ref.client.queryBlob(11);
    std::vector<u8> clean = coord->answerSlice(0, query);

    // The hang cap bounds the stall even when nobody disarms: the
    // call completes normally afterwards, bytes unchanged.
    fail::point("shard.answer.hang")
        .arm(fail::Trigger::nth(1).withArg(100));
    EXPECT_EQ(coord->answerSlice(0, query), clean);
    EXPECT_EQ(fail::point("shard.answer.hang").fires(), 1u);
}

TEST_F(FaultShard, DisarmUnblocksAHungShard)
{
    PirParams params = smallParams(8, 2);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);
    std::vector<u8> query = ref.client.queryBlob(2);
    std::vector<u8> clean = coord->answerSlice(1, query);

    fail::point("shard.answer.hang")
        .arm(fail::Trigger::nth(1).withArg(5000).withScope(1));
    auto t0 = std::chrono::steady_clock::now();
    std::vector<u8> hung;
    std::thread caller(
        [&] { hung = coord->answerSlice(1, query); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    fail::disarmAll(); // Wakes blockWhileArmed long before the cap.
    caller.join();
    double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_EQ(hung, clean);
    EXPECT_LT(elapsed, 2.5); // Far under the 5 s cap.
}

TEST_F(FaultShard, CorruptedResponseIsDetectedByTheClient)
{
    PirParams params = smallParams(8, 2);
    Reference ref(params);
    std::vector<u8> query = ref.client.queryBlob(7);
    std::vector<u8> clean = ref.server.answer(query);

    fail::armFromSpec("serialize.response.corrupt=always,limit=1");
    std::vector<u8> corrupt = ref.server.answer(query);
    EXPECT_NE(corrupt, clean);
    EXPECT_EQ(corrupt.size(), clean.size()); // One byte flipped.
    EXPECT_EQ(fail::point("serialize.response.corrupt").fires(), 1u);
    // The flipped trailing coefficient byte lands outside the modulus
    // range, so wire validation rejects the blob.
    EXPECT_THROW((void)ref.client.decodeResponse(corrupt),
                 SerializeError);
}

// --------------------------------------------------- admission control

TEST_F(FaultDispatch, BoundedQueueShedsABurstWithoutBlocking)
{
    PirParams params = smallParams(4, 1);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);
    std::vector<u8> query = ref.client.queryBlob(1);

    SchedulerConfig cfg;
    cfg.windowSec = 30.0; // Only shutdown closes the window...
    cfg.maxBatch = 8;     // ...and the queue can never fill a batch:
    cfg.maxQueue = 4;     // admission sheds first, deterministically.
    const int kBurst = 4 * cfg.maxBatch;

    std::vector<std::future<std::vector<u8>>> futures;
    {
        ShardDispatcher dispatcher(cfg);
        CounterDelta submitted(names::kDispatchSubmitted);
        CounterDelta shed_count(names::kQueriesShed);
        for (int i = 0; i < kBurst; ++i)
            futures.push_back(
                submitFuture(dispatcher, query, viaCoordinator(*coord)));

        // Shed futures are ready immediately — a burst never blocks
        // the submitter, and the shed count is exact.
        int shed = 0;
        for (auto &f : futures)
            if (f.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready)
                ++shed;
        EXPECT_EQ(shed, kBurst - cfg.maxQueue);

        // Admission counts on the submitting thread, so both are final.
        EXPECT_EQ(submitted(), static_cast<u64>(cfg.maxQueue));
        EXPECT_EQ(shed_count(), static_cast<u64>(kBurst - cfg.maxQueue));
        // Destructor shutdown flushes the accepted queries.
    }
    int answered = 0, overloaded = 0;
    for (auto &f : futures) {
        try {
            std::vector<u8> blob = f.get();
            EXPECT_EQ(blob, ref.server.answer(query));
            ++answered;
        } catch (const Overloaded &) {
            ++overloaded;
        }
    }
    EXPECT_EQ(answered, cfg.maxQueue);
    EXPECT_EQ(overloaded, kBurst - cfg.maxQueue);
}

TEST_F(FaultDispatch, RejectFailpointShedsAtAdmission)
{
    PirParams params = smallParams(4, 1);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);
    std::vector<u8> query = ref.client.queryBlob(2);

    SchedulerConfig cfg;
    cfg.windowSec = 0.001;
    cfg.maxBatch = 4;
    ShardDispatcher dispatcher(cfg);

    CounterDelta shed_count(names::kQueriesShed);
    fail::armFromSpec("dispatch.queue.reject=nth:1");
    auto shed = submitFuture(dispatcher, query, viaCoordinator(*coord));
    auto ok = submitFuture(dispatcher, query, viaCoordinator(*coord));
    EXPECT_THROW((void)shed.get(), Overloaded);
    EXPECT_EQ(ok.get(), ref.server.answer(query));
    EXPECT_EQ(shed_count(), 1u);
}

TEST_F(FaultDispatch, WindowWaitConsumesTheQueryDeadline)
{
    PirParams params = smallParams(4, 1);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);

    SchedulerConfig cfg;
    cfg.windowSec = 0.1;  // The window outlives the deadline, so the
    cfg.maxBatch = 64;    // query expires while it waits (the batch
    cfg.queryDeadlineSec = 0.005; // can never fill to dispatch early).
    ShardDispatcher dispatcher(cfg);

    CounterDelta expired(names::kDeadlineMissDispatch);
    CounterDelta completed(names::kDispatchCompleted);
    CounterDelta batches(names::kDispatchBatches);
    auto fut = submitFuture(dispatcher, ref.client.queryBlob(0),
                            viaCoordinator(*coord));
    // A lapsed query is counted before its callback fires.
    EXPECT_THROW((void)fut.get(), DeadlineExceeded);
    dispatcher.drain();
    EXPECT_EQ(expired(), 1u);
    EXPECT_EQ(completed(), 1u);
    EXPECT_EQ(batches(), 0u); // Nothing reached the coordinator.
}

// ------------------------------------------------- shutdown semantics

TEST_F(FaultDispatch, SubmitAfterShutdownRejectsWithATypedError)
{
    PirParams params = smallParams(4, 1);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);

    SchedulerConfig cfg;
    cfg.windowSec = 0.001;
    cfg.maxBatch = 4;
    ShardDispatcher dispatcher(cfg);
    dispatcher.shutdown();
    dispatcher.shutdown(); // Idempotent.

    CounterDelta submitted(names::kDispatchSubmitted);
    auto fut = submitFuture(dispatcher, ref.client.queryBlob(0),
                            viaCoordinator(*coord));
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready); // Rejected, not queued.
    EXPECT_THROW((void)fut.get(), ShutdownError);
    EXPECT_EQ(submitted(), 0u);
}

// The TSan CI stage runs this instrumented: submitters race shutdown,
// and every future must resolve with a value or a typed ive::Error —
// a broken promise (std::future_error) or a hang is the regression
// this satellite test pins down.
TEST_F(FaultDispatch, SubmitRacingShutdownAlwaysResolvesTyped)
{
    PirParams params = smallParams(4, 1);
    Reference ref(params);
    auto coord = makeCoordinator(ref, 2);

    SchedulerConfig cfg;
    cfg.windowSec = 0.0005;
    cfg.maxBatch = 4;
    ShardDispatcher dispatcher(cfg);
    CounterDelta submitted(names::kDispatchSubmitted);
    CounterDelta completed(names::kDispatchCompleted);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 50;
    // Malformed blobs keep the race cheap: accepted entries resolve
    // with SerializeError from query parsing, no crypto involved.
    const std::vector<u8> blob(16, 0xA5);
    std::vector<std::future<std::vector<u8>>> futures(
        static_cast<size_t>(kThreads) * kPerThread);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                futures[static_cast<size_t>(t) * kPerThread +
                        static_cast<size_t>(i)] =
                    submitFuture(dispatcher, blob,
                                 viaCoordinator(*coord));
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    dispatcher.shutdown(); // Races the submitters by design.
    for (auto &th : submitters)
        th.join();

    int serialize_errors = 0, shutdown_rejects = 0;
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
                  std::future_status::ready);
        try {
            (void)f.get();
            FAIL() << "malformed blob cannot produce a response";
        } catch (const SerializeError &) {
            ++serialize_errors; // Accepted, flushed, failed typed.
        } catch (const ShutdownError &) {
            ++shutdown_rejects; // Lost the race; rejected typed.
        }
        // Anything else (std::future_error, bare exception) fails the
        // test through gtest's unexpected-exception path.
    }
    EXPECT_EQ(serialize_errors + shutdown_rejects,
              kThreads * kPerThread);

    // shutdown() joined the dispatch thread, so every count is final.
    // With the total above, accepted == SerializeError means every
    // other future was a shutdown rejection.
    EXPECT_EQ(submitted(), static_cast<u64>(serialize_errors));
    EXPECT_EQ(completed(), submitted());
}

// Declared last, in the last-declared suite, on purpose: gtest runs
// whole suites in declaration order (Fault, FaultShard, FaultDispatch),
// so by now every fault path above has touched its lazily-registered
// metric handle, and the whole failure-mode vocabulary must be
// visible in one Prometheus scrape of the process-wide registry.
TEST_F(FaultDispatch, FailureMetricsAppearInThePrometheusExposition)
{
    const std::string text = obs::Registry::global().renderPrometheus();
    for (const char *family : {
             "ive_faults_injected_total{point=\"shard.answer.error\"}",
             "ive_faults_injected_total{point=\"shard.answer.delay\"}",
             names::kShardRetries,
             names::kFailovers,
             names::kQueriesShed,
             names::kDeadlineMissShard,
             names::kDeadlineMissDispatch,
         }) {
        EXPECT_NE(text.find(family), std::string::npos)
            << "missing from exposition: " << family;
    }
    // The retry-latency histogram renders as _bucket/_sum/_count
    // series derived from the base family name.
    EXPECT_NE(text.find(std::string(names::kRetryLatencyNs) +
                        "_count"),
              std::string::npos);
}
