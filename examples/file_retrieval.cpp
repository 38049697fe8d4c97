/**
 * @file
 * Private file retrieval (the paper's Fsys workload, from XPIR).
 *
 * Files larger than one plaintext span multiple database "planes" that
 * share a single expanded query: ExpandQuery runs once, RowSel/ColTor
 * repeat per plane. Part 1 retrieves a multi-plane file bytes-only —
 * client and server exchange opaque wire blobs (pir/session.hh), the
 * shape a socket or RPC layer would move. Part 2 retrieves the same
 * file through a live 4-shard deployment (shard/coordinator.hh) and
 * shows the response blob is byte-identical. Part 3 simulates the
 * paper's 1.25 TB file system on a 16-system IVE cluster (Table III
 * 'Fsys').
 */

#include <cstdio>

#include "common/units.hh"
#include "obs/metrics.hh"
#include "shard/coordinator.hh"
#include "system/cluster.hh"

using namespace ive;

int
main()
{
    // ---- Part 1: a file spanning 4 planes, retrieved over blobs ----
    PirParams params = PirParams::testSmall();
    params.d0 = 8;
    params.d = 2; // 32 files
    params.planes = 4;
    u64 file_bytes = params.bytesPerPlaintext() * params.planes;
    std::printf("file store: %llu files x %llu bytes (%d planes per "
                "file)\n",
                (unsigned long long)params.numEntries(),
                (unsigned long long)file_bytes, params.planes);

    // Client side: everything it sends is a std::vector<uint8_t>.
    ClientSession client(params, 7);
    std::vector<u8> params_blob = client.paramsBlob();
    std::vector<u8> key_blob = client.keyBlob(); // uploaded once

    // Server side: built purely from the client's params blob.
    ServerSession server(params_blob);
    server.database().fill([&](u64 entry, int plane) {
        std::vector<u64> coeffs(params.he.n);
        for (u64 j = 0; j < params.he.n; ++j)
            coeffs[j] = (entry * 7919 + plane * 104729 + j) &
                        0xffffffffu;
        return coeffs;
    });
    server.ingestKeys(key_blob);

    u64 file_id = 19;
    std::vector<u8> query_blob = client.queryBlob(file_id);
    // One expansion, planes * (RowSel + ColTor), one response blob:
    std::vector<u8> response_blob = server.answer(query_blob);
    auto chunks = client.decodeResponse(response_blob);
    bool ok = chunks.size() == static_cast<u64>(params.planes);
    for (int plane = 0; ok && plane < params.planes; ++plane) {
        ok = chunks[plane] ==
             server.database().entryCoeffs(file_id, plane);
    }
    std::printf("file %llu (%d chunks) retrieved: %s\n",
                (unsigned long long)file_id, params.planes,
                ok ? "OK" : "FAIL");
    std::printf("wire traffic: keys %zu B (once) + query %zu B -> "
                "response %zu B\n",
                key_blob.size(), query_blob.size(),
                response_blob.size());
    std::printf("server did %llu Subs for %d planes (expansion "
                "shared)\n\n",
                (unsigned long long)server.counters().subsOps,
                params.planes);

    // ---- Part 2: the same file through a 4-shard deployment ----
    // Each shard holds a quarter of the records; the query blob is
    // broadcast to ALL of them (anything else would leak which slice
    // holds the file), each returns a partial ciphertext, and the
    // coordinator runs the final two tournament levels.
    ShardCoordinator coord(params_blob, 4);
    coord.database().fill([&](u64 entry, int plane) {
        std::vector<u64> coeffs(params.he.n);
        for (u64 j = 0; j < params.he.n; ++j)
            coeffs[j] = (entry * 7919 + plane * 104729 + j) &
                        0xffffffffu;
        return coeffs;
    });
    coord.ingestKeys(key_blob);
    // The coordinator counts its traffic and work only in the
    // process-wide registry; the growth around one answer is its cost.
    obs::Registry &reg = obs::Registry::global();
    const obs::Counter &broadcast =
        reg.counter(obs::names::kShardBroadcastBytes);
    const obs::Counter &gather = reg.counter(obs::names::kShardGatherBytes);
    const obs::Counter &macs = reg.counter(obs::names::kOpsPlainMulAcc);
    const obs::Counter &ext = reg.counter(obs::names::kOpsExternalProduct);
    const u64 broadcast0 = broadcast.value(), gather0 = gather.value();
    const u64 macs0 = macs.value(), ext0 = ext.value();
    std::vector<u8> sharded_blob = coord.answer(query_blob);
    std::printf("4-shard retrieval: response %s the single-server "
                "blob (%zu B)\n",
                sharded_blob == response_blob ? "byte-identical to"
                                              : "DIFFERS from",
                sharded_blob.size());
    std::printf("  broadcast %llu B to %u shards, gathered %llu B of "
                "partials\n",
                (unsigned long long)(broadcast.value() - broadcast0),
                coord.numShards(),
                (unsigned long long)(gather.value() - gather0));
    std::printf("  shard and fold ops: %llu MACs + %llu ext "
                "products\n\n",
                (unsigned long long)(macs.value() - macs0),
                (unsigned long long)(ext.value() - ext0));
    ok = ok && sharded_blob == response_blob;

    // ---- Telemetry: what the process recorded while serving ----
    // Every layer above (session bytes, stage latencies, pool chunks,
    // shard traffic) recorded into the process-wide registry as a side
    // effect; a /metrics endpoint would return exactly this text.
    std::printf("process telemetry (Prometheus text exposition):\n%s\n",
                obs::Registry::global().renderPrometheus().c_str());

    // ---- Part 3: paper-scale 1.25 TB file system ----
    u64 db_bytes = u64{1280} * GiB;
    auto r = simulateCluster(db_bytes, 16, IveConfig::ive32(), 128);
    std::printf("1.25 TB file system on a 16-system IVE cluster, "
                "batch 128:\n");
    std::printf("  throughput: %.1f QPS (%.2f per system); latency "
                "%.2f s\n", r.qps, r.qpsPerSystem, r.latencySec);
    std::printf("  (paper Table III: 127.5 QPS, 8.0 per system, vs "
                "INSPIRE 0.006)\n");
    return ok ? 0 : 1;
}
