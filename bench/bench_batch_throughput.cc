/**
 * @file
 * Batched-query throughput of the parallel server pipeline at 1/2/4/8
 * threads: queries in a batch are independent (paper SIII-B), so the
 * thread pool runs them concurrently and, inside one query, fans out
 * over RowSel columns, RGSW gadget rows and planes. Responses are
 * checked byte-identical against the single-thread run.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "pir/server.hh"

using namespace ive;

namespace {

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

bool
ctEqual(const BfvCiphertext &x, const BfvCiphertext &y)
{
    return x.a == y.a && x.b == y.b;
}

/**
 * The batch: parallelFor over independent queries takes the coarse
 * lane, and the per-query parallelism inside processAllPlanes degrades
 * to inline execution on the worker threads.
 */
std::vector<BfvCiphertext>
runBatch(const PirServer &server, const std::vector<PirQuery> &queries)
{
    std::vector<BfvCiphertext> out(queries.size());
    parallelFor(0, queries.size(), [&](u64 i) {
        out[i] = server.processAllPlanes(queries[i])[0];
    });
    return out;
}

} // namespace

int
main()
{
    PirParams params = PirParams::testSmall();
    params.he.n = 1024;
    params.d0 = 32;
    params.d = 4;

    HeContext ctx(params.he);
    PirClient client(ctx, params, 1);
    Database db = Database::random(ctx, params, 2);
    PirServer server(ctx, params, &db, client.genPublicKeys());

    const int batch = 16;
    std::vector<PirQuery> queries;
    queries.reserve(batch);
    for (int i = 0; i < batch; ++i)
        queries.push_back(
            client.makeQuery(static_cast<u64>(i * 7) %
                             params.numEntries()));

    std::printf("batched PIR throughput (n=%llu, D=%llu, batch=%d, "
                "%u hardware threads)\n",
                (unsigned long long)params.he.n,
                (unsigned long long)params.numEntries(), batch,
                std::thread::hardware_concurrency());
    std::printf("%8s %12s %12s %10s %10s\n", "threads", "batch sec",
                "queries/sec", "speedup", "identical");

    std::vector<BfvCiphertext> baseline;
    double base_qps = 0.0;
    for (int threads : {1, 2, 4, 8}) {
        ThreadPool::setGlobalThreads(threads);
        // Warm-up run (first touch of pool + page cache).
        (void)runBatch(server, queries);

        double best = 1e100;
        std::vector<BfvCiphertext> responses;
        for (int rep = 0; rep < 3; ++rep) {
            double t0 = now();
            responses = runBatch(server, queries);
            best = std::min(best, now() - t0);
        }
        double qps = batch / best;

        bool identical = true;
        if (threads == 1) {
            baseline = responses;
            base_qps = qps;
        } else {
            for (int i = 0; i < batch; ++i)
                identical =
                    identical && ctEqual(responses[i], baseline[i]);
        }
        std::printf("%8d %12.3f %12.1f %9.2fx %10s\n", threads, best,
                    qps, qps / base_qps,
                    identical ? "yes" : "NO");
    }
    ThreadPool::setGlobalThreads(1);
    return 0;
}
