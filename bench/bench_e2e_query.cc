/**
 * @file
 * Canonical end-to-end query benchmark: the repo's perf trajectory.
 *
 * Drives the full bytes-only serving path (ServerSession::answer) and
 * the individual pipeline stages (ExpandQuery, selector assembly,
 * RowSel, ColTor fold) across a 1/2/4/8-thread sweep cut at the cores
 * this process may run on (nproc; 1 is always swept), so no point
 * oversubscribes the host. It then writes BENCH_e2e.json with
 * per-stage parallel-efficiency columns (speedup over the 1-thread
 * point divided by the thread count) plus that core count. Numbers
 * from this bench are the ones README "Performance" records; run it
 * from a Release build — Debug/sanitizer timings are noise.
 *
 * Stage timings come from the serving telemetry itself (the
 * ive_stage_latency_ns histograms in obs::Registry) rather than
 * hand-rolled timers: the bench resets a stage's histogram, drives the
 * stage, and reads p50/p99 back — so the bench exercises the same
 * telemetry path operators see, and a histogram regression is a bench
 * failure, not a silent skew. Stage _ms columns are p50; the _p99_ms
 * columns expose tail latency. answer_ms stays a wall-clock mean over
 * the qps loop (scripts/ci.sh gates on it). The _eff columns divide
 * means (the histogram's exact sum / count), since p50s land on log-
 * bucket bounds and their ratios can read above 1.
 *
 * Usage: bench_e2e_query [--quick] [--inject] [--out FILE]
 *   --quick   small ring / database; used by scripts/ci.sh as a perf
 *             smoke (also verifies the decoded record, so a kernel
 *             regression that only shows up under NDEBUG still fails CI)
 *   --inject  after the clean sweep (whose numbers it cannot perturb —
 *             failpoints arm only once the sweep is done), drive a
 *             replicated sharded deployment under the standard
 *             delay+error IVE_FAILPOINTS recipe plus an overload burst
 *             through the bounded dispatcher, verify every fault-path
 *             response stays byte-identical to the clean server, and
 *             append a "fault_recovery" block to the JSON
 *   --out     JSON destination (default BENCH_e2e.json)
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "pir/session.hh"
#include "shard/coordinator.hh"
#include "shard/dispatcher.hh"

using namespace ive;

namespace {

double
now()
{
    return static_cast<double>(obs::nowNs()) / 1e9;
}

/** Cores this process may run on: what nproc reports. */
int
usableCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** p50/p99 and exact mean of one stage histogram, in milliseconds. */
struct StageDist
{
    double p50Ms = 0;
    double p99Ms = 0;
    double meanMs = 0; ///< sum / count: no bucket quantization.
};

/**
 * Runs fn() once untimed (a cold first call would skew the mean),
 * resets the stage's latency histogram, runs fn() reps times, and
 * reads the distribution back from the telemetry the stages record
 * themselves (one sample per invocation).
 */
template <typename Fn>
StageDist
measureStage(obs::Histogram &h, int reps, Fn &&fn)
{
    fn();
    h.reset();
    for (int r = 0; r < reps; ++r)
        fn();
    obs::HistogramSnapshot s = h.snapshot();
    return {static_cast<double>(s.percentile(0.50)) / 1e6,
            static_cast<double>(s.percentile(0.99)) / 1e6,
            s.mean() / 1e6};
}

struct StageTimes
{
    int threads = 1;
    StageDist expand;
    StageDist selectors;
    StageDist rowsel;
    StageDist fold;
    StageDist answer;     ///< From the answer-stage histogram.
    double answerSec = 0; ///< Wall-clock mean over the qps loop.
    double qps = 0;
};

std::vector<u64>
dbContent(const PirParams &params, u64 entry, int plane)
{
    std::vector<u64> coeffs(params.he.n);
    for (u64 j = 0; j < params.he.n; ++j)
        coeffs[j] = (entry * 9973 + static_cast<u64>(plane) * 31 + j) &
                    (params.he.plainModulus - 1);
    return coeffs;
}

/** Results of the --inject fault-recovery run. */
struct FaultRecovery
{
    bool ran = false;
    const char *recipe = "";
    int queries = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    u64 faultsInjected = 0;
    u64 retries = 0;
    u64 failovers = 0;
    u64 burst = 0;
    u64 shed = 0;
    u64 answered = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool inject = false;
    std::string out_path = "BENCH_e2e.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--inject") == 0) {
            inject = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: bench_e2e_query [--quick] "
                                 "[--inject] [--out FILE]\n");
            return 2;
        }
    }

    // Default: the functional ring (n = 4096, four 28-bit Solinas
    // primes) over a 4096-entry database — big enough that RowSel MACs
    // and the fold dominate, small enough to fill in seconds. Quick: a
    // CI smoke on the small test ring.
    PirParams params;
    if (quick) {
        params = PirParams::testSmall();
        params.d0 = 16;
        params.d = 2;
    } else {
        params = PirParams::functionalDefault();
        params.d0 = 64;
        params.d = 6;
    }

    const u64 query_entry = 13 % params.numEntries();
    ClientSession client(params, /*seed=*/42);
    std::vector<u8> params_blob = client.paramsBlob();
    std::vector<u8> key_blob = client.keyBlob();

    ServerSession session(params_blob);
    session.database().fill([&](u64 entry, int plane) {
        return dbContent(params, entry, plane);
    });
    session.ingestKeys(key_blob);

    std::vector<u8> query_blob = client.queryBlob(query_entry);

    // Correctness oracle: the decoded record must match the fill
    // generator before any timing is trusted.
    {
        std::vector<std::vector<u64>> rec =
            client.decodeResponse(session.answer(query_blob));
        for (int plane = 0; plane < params.planes; ++plane) {
            if (rec[static_cast<size_t>(plane)] !=
                dbContent(params, query_entry, plane)) {
                std::fprintf(stderr,
                             "FAIL: decoded record mismatch (plane %d)\n",
                             plane);
                return 1;
            }
        }
    }

    // Stage breakdown runs on the raw pipeline (no wire layer), using
    // a second in-process client for the typed query object.
    HeContext ctx(params.he);
    PirClient stage_client(ctx, params, /*seed=*/42);
    auto keys =
        std::make_shared<const PirPublicKeys>(stage_client.genPublicKeys());
    Database db(ctx, params);
    db.fill([&](u64 entry, int plane) {
        return dbContent(params, entry, plane);
    });
    PirServer server(ctx, params, &db, std::move(keys));
    PirQuery query = stage_client.makeQuery(query_entry);

    namespace names = obs::names;
    obs::Registry &reg = obs::Registry::global();
    obs::Histogram &h_expand = reg.histogram(names::kStageExpand);
    obs::Histogram &h_selectors = reg.histogram(names::kStageSelectors);
    obs::Histogram &h_rowsel = reg.histogram(names::kStageRowsel);
    obs::Histogram &h_fold = reg.histogram(names::kStageFold);
    obs::Histogram &h_answer = reg.histogram(names::kStageAnswer);

    const int reps = quick ? 3 : 5;
    std::printf("bench_e2e_query: n=%llu k=%d D0=%llu d=%d "
                "(%llu entries, %.1f MiB raw)%s\n",
                (unsigned long long)params.he.n, ctx.ring().k(),
                (unsigned long long)params.d0, params.d,
                (unsigned long long)params.numEntries(),
                params.dbBytes() / (1024.0 * 1024.0),
                quick ? " [quick]" : "");
    std::printf("%7s | %9s %9s %9s %9s | %9s %8s  (stage ms = p50)\n",
                "threads", "expand ms", "sel ms", "rowsel ms", "fold ms",
                "answer ms", "qps");

    const int cores = usableCores();
    std::vector<StageTimes> results;
    for (int threads : {1, 2, 4, 8}) {
        if (threads > cores)
            break;
        ThreadPool::setGlobalThreads(threads);
        StageTimes st;
        st.threads = threads;

        // Expansion and selector assembly unfused, so each stage
        // histogram times one of them alone.
        std::vector<BfvCiphertext> leaves;
        std::vector<RgswCiphertext> none;
        st.expand = measureStage(h_expand, reps, [&] {
            leaves = server.expandAndSelect(query, 0, 0, none);
        });
        std::vector<RgswCiphertext> selectors;
        st.selectors = measureStage(h_selectors, reps, [&] {
            selectors = server.buildSelectors(leaves, 0, params.d);
        });
        std::vector<BfvCiphertext> entries;
        st.rowsel = measureStage(h_rowsel, reps, [&] {
            entries = server.rowSel(leaves);
        });
        st.fold = measureStage(h_fold, reps, [&] {
            std::vector<BfvCiphertext> copy = entries;
            BfvCiphertext folded =
                server.colTor(std::move(copy), selectors);
            (void)folded;
        });

        // End-to-end: loop answer() until enough wall time accumulates
        // for a stable queries/sec figure; the per-query distribution
        // comes from the answer-stage histogram over the same loop.
        (void)session.answer(query_blob); // Warm-up.
        h_answer.reset();
        const double min_wall = quick ? 0.2 : 2.0;
        int iters = 0;
        double t0 = now(), elapsed = 0;
        while (elapsed < min_wall) {
            (void)session.answer(query_blob);
            ++iters;
            elapsed = now() - t0;
        }
        st.answerSec = elapsed / iters;
        st.qps = iters / elapsed;
        obs::HistogramSnapshot ans = h_answer.snapshot();
        st.answer = {static_cast<double>(ans.percentile(0.50)) / 1e6,
                     static_cast<double>(ans.percentile(0.99)) / 1e6};
        results.push_back(st);

        std::printf("%7d | %9.2f %9.2f %9.2f %9.2f | %9.2f %8.3f\n",
                    threads, st.expand.p50Ms, st.selectors.p50Ms,
                    st.rowsel.p50Ms, st.fold.p50Ms, st.answerSec * 1e3,
                    st.qps);
    }
    ThreadPool::setGlobalThreads(1);

    // Fault-recovery run: arms failpoints only now, after every clean
    // measurement above, so the sweep's numbers are untouched (a
    // disarmed site costs one relaxed load).
    FaultRecovery fr;
    if (inject) {
        fr.ran = true;
        fr.recipe = "shard.answer.delay=every:5,arg=2;"
                    "shard.answer.error=nth:3";
        FailoverConfig fo;
        fo.replicas = 2;
        fo.backoffBaseSec = 1e-4;
        fo.backoffCapSec = 1e-3;
        ShardCoordinator coord(params_blob, /*num_shards=*/2, fo);
        coord.database().fill([&](u64 entry, int plane) {
            return dbContent(params, entry, plane);
        });
        coord.ingestKeys(key_blob);
        const std::vector<u8> want = session.answer(query_blob);

        // Retries, failovers and sheds are read from the registry, the
        // only store the coordinator and dispatcher count in.
        const obs::Counter &retries = reg.counter(names::kShardRetries);
        const obs::Counter &failovers = reg.counter(names::kFailovers);
        const obs::Counter &shed = reg.counter(names::kQueriesShed);
        const u64 retries0 = retries.value();
        const u64 failovers0 = failovers.value();

        fail::armFromSpec(fr.recipe);
        fr.queries = quick ? 8 : 10;
        std::vector<double> lat_ms;
        for (int i = 0; i < fr.queries; ++i) {
            double q0 = now();
            std::vector<u8> got = coord.answer(query_blob);
            lat_ms.push_back((now() - q0) * 1e3);
            // Recovery must be invisible in the bytes: failover hands
            // the slice to a replica computing the identical partial.
            if (got != want) {
                std::fprintf(
                    stderr,
                    "FAIL: fault-path response diverged (query %d)\n", i);
                return 1;
            }
        }
        fr.faultsInjected = fail::point("shard.answer.delay").fires() +
                            fail::point("shard.answer.error").fires();
        fr.retries = retries.value() - retries0;
        fr.failovers = failovers.value() - failovers0;

        // Overload burst through the bounded dispatcher: the window
        // stays open and the batch cannot fill, so admission sheds
        // everything past the high-water mark deterministically.
        SchedulerConfig cfg;
        cfg.windowSec = 30.0;
        cfg.maxBatch = 8;
        cfg.maxQueue = 2;
        fr.burst = 8;
        const u64 shed0 = shed.value();
        {
            ShardDispatcher dispatcher(cfg);
            std::vector<std::future<std::vector<u8>>> futures;
            for (u64 i = 0; i < fr.burst; ++i)
                futures.push_back(submitFuture(
                    dispatcher, query_blob,
                    [&coord](const std::vector<u8> &blob) {
                        return coord.answer(blob);
                    }));
            dispatcher.shutdown(); // Flushes the accepted queries.
            for (auto &f : futures) {
                try {
                    if (f.get() != want) {
                        std::fprintf(stderr, "FAIL: burst response "
                                             "diverged\n");
                        return 1;
                    }
                    ++fr.answered;
                } catch (const Overloaded &) {
                    // Shed at admission; counted by the registry.
                }
            }
        }
        fr.shed = shed.value() - shed0;
        fail::disarmAll();

        std::sort(lat_ms.begin(), lat_ms.end());
        fr.p50Ms = lat_ms[lat_ms.size() / 2];
        fr.p99Ms = lat_ms.back();
        std::printf("fault recovery: %d queries under '%s': p50 %.2f ms "
                    "p99 %.2f ms, %llu faults, %llu retries, "
                    "%llu failovers; burst %llu -> %llu shed\n",
                    fr.queries, fr.recipe, fr.p50Ms, fr.p99Ms,
                    (unsigned long long)fr.faultsInjected,
                    (unsigned long long)fr.retries,
                    (unsigned long long)fr.failovers,
                    (unsigned long long)fr.burst,
                    (unsigned long long)fr.shed);
    }

    FILE *json = std::fopen(out_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(json,
                 "{\n  \"quick\": %s,\n  \"cores\": %d,\n"
                 "  \"params\": {\"n\": %llu, "
                 "\"k\": %d, \"d0\": %llu, \"d\": %d, \"planes\": %d, "
                 "\"entries\": %llu, \"db_bytes\": %llu},\n"
                 "  \"points\": [\n",
                 quick ? "true" : "false", cores,
                 (unsigned long long)params.he.n, ctx.ring().k(),
                 (unsigned long long)params.d0, params.d, params.planes,
                 (unsigned long long)params.numEntries(),
                 (unsigned long long)params.dbBytes());
    // Parallel efficiency per stage: (t_1 / t_T) / T — 1.0 is perfect
    // scaling, 1/T is no scaling. The 1-thread point is the divisor,
    // so its own columns are 1.0 by construction. Stage _ms columns
    // are histogram p50s; _p99_ms columns are the tails; answer_ms is
    // the wall-clock mean the CI perf gate reads. Stage efficiencies
    // divide per-call means, which do not quantize to bucket bounds.
    const StageTimes &base = results[0];
    auto eff = [&](double t1, double tt, int threads) {
        return tt > 0 ? (t1 / tt) / threads : 0.0;
    };
    for (size_t i = 0; i < results.size(); ++i) {
        const StageTimes &st = results[i];
        std::fprintf(json,
                     "%s    {\"threads\": %d, \"expand_ms\": %.3f, "
                     "\"selectors_ms\": %.3f, \"rowsel_ms\": %.3f, "
                     "\"fold_ms\": %.3f, \"answer_ms\": %.3f, "
                     "\"queries_per_sec\": %.4f,\n"
                     "     \"expand_p99_ms\": %.3f, "
                     "\"selectors_p99_ms\": %.3f, "
                     "\"rowsel_p99_ms\": %.3f, \"fold_p99_ms\": %.3f, "
                     "\"answer_p50_ms\": %.3f, "
                     "\"answer_p99_ms\": %.3f,\n"
                     "     \"expand_eff\": %.3f, \"selectors_eff\": %.3f, "
                     "\"rowsel_eff\": %.3f, \"fold_eff\": %.3f, "
                     "\"answer_eff\": %.3f, \"answer_speedup\": %.3f}",
                     i == 0 ? "" : ",\n", st.threads, st.expand.p50Ms,
                     st.selectors.p50Ms, st.rowsel.p50Ms, st.fold.p50Ms,
                     st.answerSec * 1e3, st.qps, st.expand.p99Ms,
                     st.selectors.p99Ms, st.rowsel.p99Ms, st.fold.p99Ms,
                     st.answer.p50Ms, st.answer.p99Ms,
                     eff(base.expand.meanMs, st.expand.meanMs, st.threads),
                     eff(base.selectors.meanMs, st.selectors.meanMs,
                         st.threads),
                     eff(base.rowsel.meanMs, st.rowsel.meanMs, st.threads),
                     eff(base.fold.meanMs, st.fold.meanMs, st.threads),
                     eff(base.answerSec, st.answerSec, st.threads),
                     st.answerSec > 0 ? base.answerSec / st.answerSec
                                      : 0.0);
    }
    std::fprintf(json, "\n  ]");
    if (fr.ran)
        std::fprintf(
            json,
            ",\n  \"fault_recovery\": {\"recipe\": \"%s\", "
            "\"shards\": 2, \"replicas\": 2, \"queries\": %d,\n"
            "    \"answer_p50_ms\": %.3f, \"answer_p99_ms\": %.3f, "
            "\"faults_injected\": %llu, \"retries\": %llu, "
            "\"failovers\": %llu,\n"
            "    \"burst\": %llu, \"shed\": %llu, \"answered\": %llu}",
            fr.recipe, fr.queries, fr.p50Ms, fr.p99Ms,
            (unsigned long long)fr.faultsInjected,
            (unsigned long long)fr.retries,
            (unsigned long long)fr.failovers,
            (unsigned long long)fr.burst, (unsigned long long)fr.shed,
            (unsigned long long)fr.answered);
    std::fprintf(json, "\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
