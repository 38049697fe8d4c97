/**
 * @file
 * Real sharded-serving throughput vs the closed-form cluster model.
 *
 * For shard counts 1/2/4/8 the bench drives a batch of queries through
 * the live ShardCoordinator (broadcast -> partial -> gather -> final
 * fold), checks the responses byte-identical against the single-server
 * session, and prints measured QPS/latency next to the
 * simulateCluster() prediction for the same shard count. The two
 * columns are different machines — the live numbers come from this
 * host's CPU, the prediction from the paper's IVE-32 accelerator — so
 * the comparison is the *scaling shape* (speedup over one shard), not
 * absolute QPS. Results also land in BENCH_shard.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "shard/coordinator.hh"
#include "system/cluster.hh"

using namespace ive;

namespace {

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main()
{
    PirParams params = PirParams::testSmall();
    params.he.n = 1024;
    params.d0 = 32;
    params.d = 4;

    const int batch = 4;
    ClientSession client(params, 1);
    std::vector<u8> params_blob = client.paramsBlob();
    std::vector<u8> key_blob = client.keyBlob();

    ServerSession reference(params_blob);
    reference.database().fill([&](u64 entry, int plane) {
        std::vector<u64> coeffs(params.he.n);
        for (u64 j = 0; j < params.he.n; ++j)
            coeffs[j] = (entry * 9973 + plane * 31 + j) & 0xffffffffu;
        return coeffs;
    });
    reference.ingestKeys(key_blob);

    std::vector<std::vector<u8>> queries, want;
    for (int i = 0; i < batch; ++i)
        queries.push_back(client.queryBlob(
            static_cast<u64>(i * 13) % params.numEntries()));
    for (const auto &q : queries)
        want.push_back(reference.answer(q));

    std::printf("sharded serving vs simulateCluster (n=%llu, D=%llu, "
                "batch=%d, %u hw threads)\n",
                (unsigned long long)params.he.n,
                (unsigned long long)params.numEntries(), batch,
                std::thread::hardware_concurrency());
    std::printf("%7s | %11s %11s %8s | %11s %8s | %9s\n", "shards",
                "meas QPS", "latency s", "speedup", "model QPS",
                "speedup", "identical");

    FILE *json = std::fopen("BENCH_shard.json", "w");
    if (json)
        std::fprintf(json, "{\n  \"batch\": %d,\n  \"points\": [\n",
                     batch);

    double base_qps = 0.0, base_model = 0.0;
    IveConfig cfg = IveConfig::ive32();
    for (u32 shards : {1u, 2u, 4u, 8u}) {
        ShardCoordinator coord(params_blob, shards);
        coord.fillDatabase([&](u64 entry, int plane) {
            std::vector<u64> coeffs(params.he.n);
            for (u64 j = 0; j < params.he.n; ++j)
                coeffs[j] =
                    (entry * 9973 + plane * 31 + j) & 0xffffffffu;
            return coeffs;
        });
        coord.ingestKeys(key_blob);

        // The batch: parallelFor over independent queries, each one
        // broadcast, gathered and folded by the coordinator.
        auto runBatch = [&] {
            std::vector<std::vector<u8>> out(queries.size());
            parallelFor(0, queries.size(),
                        [&](u64 i) { out[i] = coord.answer(queries[i]); });
            return out;
        };
        (void)runBatch(); // Warm-up.
        double best = 1e100;
        std::vector<std::vector<u8>> responses;
        for (int rep = 0; rep < 2; ++rep) {
            double t0 = now();
            responses = runBatch();
            best = std::min(best, now() - t0);
        }
        double qps = batch / best;
        bool identical = responses == want;

        ClusterResult model = simulateCluster(
            params.dbBytes(), static_cast<int>(shards), cfg, batch);
        if (shards == 1) {
            base_qps = qps;
            base_model = model.qps;
        }
        std::printf("%7u | %11.2f %11.4f %7.2fx | %11.1f %7.2fx | %9s\n",
                    shards, qps, best, qps / base_qps, model.qps,
                    model.qps / base_model,
                    identical ? "yes" : "NO");
        if (json) {
            std::fprintf(json,
                         "%s    {\"shards\": %u, \"measured_qps\": %.3f, "
                         "\"measured_latency_sec\": %.6f, "
                         "\"model_qps\": %.3f, "
                         "\"model_latency_sec\": %.6f, "
                         "\"identical\": %s}",
                         shards == 1 ? "" : ",\n", shards, qps, best,
                         model.qps, model.latencySec,
                         identical ? "true" : "false");
        }
        if (!identical) {
            // Close the JSON before bailing so the partial run stays
            // parseable for whoever diagnoses the mismatch.
            if (json) {
                std::fprintf(json, "\n  ]\n}\n");
                std::fclose(json);
            }
            return 1;
        }
    }
    if (json) {
        std::fprintf(json, "\n  ]\n}\n");
        std::fclose(json);
        std::printf("wrote BENCH_shard.json\n");
    }
    std::printf("(model speedup is the paper's IVE-32 cluster; live "
                "speedup on one host is bounded by its cores and the "
                "duplicated per-shard query expansion)\n");
    return 0;
}
