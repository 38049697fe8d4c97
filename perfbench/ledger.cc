/**
 * @file
 * The repo benchmark: paper-shape PIR served over a real socket.
 *
 * One process hosts a net::PirTcpServer (shipped NetServerConfig{}
 * defaults, global thread pool sized to nproc) over the BENCH_e2e
 * database shape — n = 4096, k = 4, D0 = 64, d = 6, 4096 records, 64 MiB
 * raw — and drives it from at most nproc load-generator threads, each
 * on its own net::PirTcpClient connection, closed loop. It touches the
 * layers only through their public functions.
 *
 * Workloads (all share the database; every input comes from --seed):
 *   single_client  one client, one connection: a query never shares a
 *                  dispatcher batch, so expand/selectors/RowSel/fold
 *                  and the idle waiting window set its latency.
 *   multi_client   nproc distinct clients, one connection each: queries
 *                  with different keys wait for the same database pass.
 *   key_churn      24 identities (about twice the registry's key budget)
 *                  over nproc connections, identity drawn per query: a
 *                  refused QueryRef re-registers and retries once, and
 *                  its latency includes that recovery.
 *
 * A run: generate client keys and query pools (untimed); set up the
 * deployment kSetupRepetitions times (database build + fill, server
 * start, initial registrations) and keep the last; check one response
 * per client byte-for-byte against in-process ServerSession::answer;
 * load for --seconds; decode every response against the fill
 * generator. --trace 1 additionally records spans around every other
 * client call (the rest are the untraced control for the tracing
 * overhead), replays one query and one registration through the public
 * layer functions in pipeline order, runs the roofline probes, and
 * reports the per-layer ledger instead of the end-to-end metrics.
 *
 * The last stdout line is the result object (perfbench/stats.hh); a
 * "host" line before it carries the host fingerprint. Exit status is
 * non-zero when any response is wrong.
 */

#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "pir/session.hh"
#include "poly/simd/simd.hh"
#include "stats.hh"

#ifndef IVE_LEDGER_BUILD_TYPE
#define IVE_LEDGER_BUILD_TYPE "unknown"
#endif

using namespace ive;
namespace pb = perfbench;

namespace {

/** Setups per run; setup_s and server_mem_mib report their median. */
constexpr int kSetupRepetitions = 3;
/** In-process replays per request kind in the traced run. */
constexpr int kQueryReplays = 5;
constexpr int kRegisterReplays = 3;
/** Identities of key_churn: 24 x 19.75 MiB key blobs against the
 *  registry's 256 MiB default budget. */
constexpr int kChurnIdentities = 24;
/** Wire client ids are offset so id 0 is never used. */
constexpr u64 kClientIdBase = 1000;
/** The measured phase may overrun --seconds until p90 is supported,
 *  but never past this multiple of it. */
constexpr double kMaxOverrun = 3.0;

constexpr double kMiB = 1024.0 * 1024.0;

u64
mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
msBetween(u64 t0, u64 t1)
{
    return static_cast<double>(t1 - t0) / 1e6;
}

/** The BENCH_e2e shape: functional ring, 64 x 2^6 records. */
PirParams
paperShape()
{
    PirParams p = PirParams::functionalDefault();
    p.d0 = 64;
    p.d = 6;
    return p;
}

/** Fill generator: record content is a pure function of the seed. */
std::vector<u64>
recordContent(const PirParams &p, u64 seed, u64 entry, int plane)
{
    std::vector<u64> coeffs(p.he.n);
    u64 base = mix64(seed ^ mix64(entry * 0x100000001b3ULL +
                                  static_cast<u64>(plane)));
    for (u64 j = 0; j < p.he.n; ++j)
        coeffs[j] = mix64(base + j) & (p.he.plainModulus - 1);
    return coeffs;
}

/** Resident set size after returning freed heap pages to the OS. */
double
rssMiB()
{
    malloc_trim(0);
    long pages = 0, resident = 0;
    if (FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / kMiB;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            std::string m = colon == std::string::npos
                                ? line
                                : line.substr(colon + 1);
            size_t b = m.find_first_not_of(' ');
            std::string out;
            for (char ch : m.substr(b == std::string::npos ? 0 : b))
                if (ch != '"' && ch != '\\')
                    out += ch;
            return out;
        }
    }
    return "unknown";
}

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = v == "1";
            else if (k == "--trace-out")
                a.traceOut = v;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

struct WorkloadSpec
{
    int identities = 1;
    int connections = 1;
    bool churn = false; ///< Identity drawn per query (else thread's own).
    int poolPerIdentity = 1;
};

std::optional<WorkloadSpec>
specFor(const std::string &name, int nproc)
{
    if (name == "single_client")
        return WorkloadSpec{1, 1, false, 32};
    if (name == "multi_client")
        return WorkloadSpec{nproc, nproc, false, 8};
    if (name == "key_churn")
        return WorkloadSpec{kChurnIdentities, nproc, true, 2};
    return std::nullopt;
}

/** One client identity: its keys, its query pool, its registration. */
struct Identity
{
    u64 clientId = 0;
    std::unique_ptr<ClientSession> client;
    std::vector<u64> entries;            ///< Record index per pool slot.
    std::vector<std::vector<u8>> queries; ///< Query blob per pool slot.
    std::mutex mu;                       ///< Guards generation.
    u64 generation = 0;
};

using Identities = std::vector<std::unique_ptr<Identity>>;

/** Keys and query pools, generated in parallel (client-side, untimed). */
Identities
makeIdentities(const PirParams &params, const WorkloadSpec &spec, u64 seed,
               int threads)
{
    Identities ids(static_cast<size_t>(spec.identities));
    std::atomic<int> next{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&] {
            for (int i = next++; i < spec.identities; i = next++) {
                auto id = std::make_unique<Identity>();
                id->clientId = kClientIdBase + static_cast<u64>(i);
                id->client = std::make_unique<ClientSession>(
                    params, mix64(seed * 131 + static_cast<u64>(i)));
                for (int s = 0; s < spec.poolPerIdentity; ++s) {
                    u64 r = mix64(seed ^ mix64((static_cast<u64>(i) << 20) +
                                               static_cast<u64>(s)));
                    id->entries.push_back(r % params.numEntries());
                    id->queries.push_back(
                        id->client->queryBlob(id->entries.back()));
                }
                ids[static_cast<size_t>(i)] = std::move(id);
            }
        });
    }
    for (auto &t : ts)
        t.join();
    return ids;
}

/** The served deployment; members die server-first. */
struct Deployment
{
    std::unique_ptr<HeContext> ctx;
    std::unique_ptr<Database> db;
    std::unique_ptr<net::PirTcpServer> server;
};

/** Stops the server before the database and context it serves go. */
void
tearDown(Deployment &d)
{
    d.server.reset();
    d.db.reset();
    d.ctx.reset();
}

/**
 * One RegisterKeys round trip. Copying the blobs out of the
 * ClientSession is the benchmark's own cost: it is added to excluded_ns
 * so recovering queries can leave it out of their latency.
 */
u64
registerIdentity(net::PirTcpClient &conn, Identity &id,
                 std::vector<double> &register_ms, u64 &excluded_ns)
{
    u64 c0 = obs::nowNs();
    std::vector<u8> params = id.client->paramsBlob();
    std::vector<u8> keys = id.client->keyBlob();
    u64 t0 = obs::nowNs();
    excluded_ns += t0 - c0;
    u64 gen = conn.registerKeys(id.clientId, params, keys);
    register_ms.push_back(msBetween(t0, obs::nowNs()));
    return gen;
}

struct SetupSample
{
    double seconds = 0;
    double serverMiB = 0; ///< RSS added across the setup.
};

/** Database build + fill, server start, initial registrations. */
Deployment
setUp(const PirParams &params, u64 seed, Identities &ids,
      std::vector<double> &register_ms, SetupSample &sample)
{
    double rss0 = rssMiB();
    u64 t0 = obs::nowNs();
    Deployment d;
    d.ctx = std::make_unique<HeContext>(params.he);
    d.db = std::make_unique<Database>(*d.ctx, params);
    d.db->fill([&](u64 entry, int plane) {
        return recordContent(params, seed, entry, plane);
    });
    d.server = std::make_unique<net::PirTcpServer>(*d.ctx, params,
                                                   d.db.get());
    {
        net::PirTcpClient admin("127.0.0.1", d.server->port());
        u64 excluded = 0;
        for (auto &id : ids)
            id->generation = registerIdentity(admin, *id, register_ms,
                                              excluded);
    }
    sample.seconds = static_cast<double>(obs::nowNs() - t0) / 1e9;
    sample.serverMiB = rssMiB() - rss0;
    return d;
}

/** Per-generator-thread results; merged after the phase. */
struct Worker
{
    pb::Tally tally;
    std::vector<double> latencyMs;   ///< Untraced queries (failed = inf).
    std::vector<double> tracedMs;    ///< Traced queries (trace mode).
    std::vector<double> registerMs;
    struct Answer
    {
        int identity;
        int slot;
        std::vector<u8> response;
    };
    std::vector<Answer> answers;
    pb::SpanLog spans;
    u64 reconnects = 0;
};

/**
 * One attempted query, closed loop: QueryRef, and when the registry
 * refuses it (evicted or re-registered meanwhile), one re-registration
 * and one retry. Latency runs from the first QueryRef write to the last
 * response read, minus the benchmark's own blob copies.
 */
void
attemptQuery(std::unique_ptr<net::PirTcpClient> &conn, u16 port,
             Identity &id, int identity, int slot, bool traced,
             u64 request_id, Worker &w)
{
    pb::SpanLog &sl = w.spans;
    auto span = [&](const char *name, int parent) {
        return traced ? sl.begin(name, obs::nowNs(), parent, request_id)
                      : -1;
    };
    auto close = [&](int s) {
        if (s >= 0)
            sl.end(s, obs::nowNs());
    };

    if (!conn)
        conn = std::make_unique<net::PirTcpClient>("127.0.0.1", port);
    const std::vector<u8> &blob = id.queries[static_cast<size_t>(slot)];
    int root = span("client.query", -1);
    u64 excluded = 0;
    u64 t0 = obs::nowNs();
    pb::Outcome outcome = pb::Outcome::Error;
    std::vector<u8> response;
    u64 gen = 0;
    {
        std::lock_guard<std::mutex> lk(id.mu);
        gen = id.generation;
    }
    bool refused = false;
    int s = span("client.queryref", root);
    try {
        response = conn->query(id.clientId, gen, blob);
        outcome = pb::Outcome::Ok;
    } catch (const net::UnknownClientError &) {
        refused = true;
    } catch (const net::StaleGenerationError &) {
        refused = true;
    } catch (const Error &) {
        conn.reset(); // Timeout or loss: the stream is no longer usable.
        ++w.reconnects;
    }
    close(s);
    if (refused) {
        outcome = pb::Outcome::RecoveredFailed;
        try {
            {
                // Another connection may already have re-registered
                // this identity; only the first refusal re-registers.
                std::lock_guard<std::mutex> lk(id.mu);
                if (id.generation == gen) {
                    int r = span("client.register", root);
                    id.generation =
                        registerIdentity(*conn, id, w.registerMs, excluded);
                    close(r);
                }
                gen = id.generation;
            }
            int r = span("client.retry", root);
            response = conn->query(id.clientId, gen, blob);
            close(r);
            outcome = pb::Outcome::RecoveredOk;
        } catch (const net::UnknownClientError &) {
        } catch (const net::StaleGenerationError &) {
        } catch (const Error &) {
            conn.reset();
            ++w.reconnects;
        }
    }
    u64 t1 = obs::nowNs();
    close(root);
    w.tally.record(outcome);
    bool ok = outcome == pb::Outcome::Ok ||
              outcome == pb::Outcome::RecoveredOk;
    double ms = ok ? msBetween(t0, t1 - excluded)
                   : std::numeric_limits<double>::infinity();
    (traced ? w.tracedMs : w.latencyMs).push_back(ms);
    if (ok)
        w.answers.push_back({identity, slot, std::move(response)});
}

/** True when the response decodes to the generator's record. */
bool
decodesCorrectly(const PirParams &params, u64 seed, const Identity &id,
                 int slot, const std::vector<u8> &response)
{
    try {
        std::vector<std::vector<u64>> rec =
            id.client->decodeResponse(response);
        u64 entry = id.entries[static_cast<size_t>(slot)];
        for (int plane = 0; plane < params.planes; ++plane)
            if (rec.at(static_cast<size_t>(plane)) !=
                recordContent(params, seed, entry, plane))
                return false;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

/**
 * Setup oracle: one response per identity over the socket must equal,
 * byte for byte, what an in-process ServerSession answers for the same
 * query blob, and must decode to the right record. Returns identity
 * 0's reference response for the traced replay's own check.
 */
bool
checkAgainstSession(const PirParams &params, u64 seed, Identities &ids,
                    u16 port, std::vector<u8> &first_response)
{
    ServerSession ref(params);
    ref.database().fill([&](u64 entry, int plane) {
        return recordContent(params, seed, entry, plane);
    });
    std::unique_ptr<net::PirTcpClient> conn;
    Worker scratch;
    bool ok = true;
    for (size_t i = 0; i < ids.size(); ++i) {
        Identity &id = *ids[i];
        attemptQuery(conn, port, id, static_cast<int>(i), 0, false, 0,
                     scratch);
        ref.ingestKeys(id.client->keyBlob());
        std::vector<u8> want = ref.answer(id.queries[0]);
        if (scratch.answers.empty() ||
            scratch.answers.back().identity != static_cast<int>(i) ||
            scratch.answers.back().response != want ||
            !decodesCorrectly(params, seed, id, 0, want)) {
            std::fprintf(stderr,
                         "oracle: client %llu socket response differs "
                         "from ServerSession::answer\n",
                         static_cast<unsigned long long>(id.clientId));
            ok = false;
        }
        if (i == 0)
            first_response = want;
    }
    return ok;
}

/** Registry families read before and after the measured phase. */
struct ObsSnapshot
{
    obs::HistogramSnapshot expand, selectors, rowsel, fold, windowWait,
        batchSize;
    u64 poolBusyNs = 0;
    net::NetServerStats net;
    net::RegistryStats registry;
    std::string json;
};

ObsSnapshot
snapshotObs(net::PirTcpServer &server)
{
    namespace n = obs::names;
    obs::Registry &r = obs::Registry::global();
    ObsSnapshot s;
    s.expand = r.histogram(n::kStageExpand).snapshot();
    s.selectors = r.histogram(n::kStageSelectors).snapshot();
    s.rowsel = r.histogram(n::kStageRowsel).snapshot();
    s.fold = r.histogram(n::kStageFold).snapshot();
    s.windowWait = r.histogram(n::kDispatchWindowWaitNs).snapshot();
    s.batchSize = r.histogram(n::kDispatchBatchSize).snapshot();
    s.poolBusyNs = r.counter(n::kPoolBusyNs).value();
    s.net = server.stats();
    s.registry = server.registry().stats();
    s.json = r.renderJson();
    return s;
}

/** after - before, bucket by bucket. */
obs::HistogramSnapshot
delta(const obs::HistogramSnapshot &after,
      const obs::HistogramSnapshot &before)
{
    obs::HistogramSnapshot d = after;
    d.count -= before.count;
    d.sum -= before.sum;
    for (size_t i = 0; i < d.buckets.size() && i < before.buckets.size();
         ++i)
        d.buckets[i] -= before.buckets[i];
    return d;
}

double
p50Ms(const obs::HistogramSnapshot &h)
{
    return static_cast<double>(h.percentile(0.50)) / 1e6;
}

/** Median seconds of fn over reps calls. */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        u64 t0 = obs::nowNs();
        fn();
        t.push_back(static_cast<double>(obs::nowNs() - t0) / 1e9);
    }
    return pb::median(t);
}

/** nproc-thread streaming read of the resident database, GB/s. */
double
streamReadGbs(const Database &db, int threads, double db_bytes)
{
    const u64 entries = db.numEntries();
    std::vector<u64> sinks(static_cast<size_t>(threads));
    auto pass = [&] {
        std::vector<std::thread> ts;
        for (int t = 0; t < threads; ++t) {
            ts.emplace_back([&, t] {
                u64 lo = entries * static_cast<u64>(t) /
                         static_cast<u64>(threads);
                u64 hi = entries * static_cast<u64>(t + 1) /
                         static_cast<u64>(threads);
                u64 a0 = 0, a1 = 0, a2 = 0, a3 = 0;
                for (u64 e = lo; e < hi; ++e) {
                    const RnsPoly &p = db.entry(e);
                    for (int k = 0; k < p.k(); ++k) {
                        std::span<const u64> r = p.residues(k);
                        for (size_t j = 0; j + 4 <= r.size(); j += 4) {
                            a0 += r[j];
                            a1 += r[j + 1];
                            a2 += r[j + 2];
                            a3 += r[j + 3];
                        }
                    }
                }
                sinks[static_cast<size_t>(t)] = a0 ^ a1 ^ a2 ^ a3;
            });
        }
        for (auto &th : ts)
            th.join();
    };
    pass(); // Warm the page tables.
    double sec = medianSeconds(5, pass);
    u64 sink = 0;
    for (u64 s : sinks)
        sink ^= s;
    if (sink == 0x5eed)
        std::fprintf(stderr, " "); // Keeps the reads observable.
    return db_bytes / sec / 1e9;
}

/** Single-thread forward NTT (n = 4096, first prime), microseconds. */
double
nttForwardUs(const HeContext &ctx)
{
    const NttTable &t = ctx.ring().ntt[0];
    std::vector<u64> a(t.n());
    for (u64 i = 0; i < t.n(); ++i)
        a[i] = mix64(i) % t.modulus().value();
    constexpr int kCalls = 200;
    double sec = medianSeconds(9, [&] {
        for (int c = 0; c < kCalls; ++c)
            t.forward(a);
    });
    return sec / kCalls * 1e6;
}

/** Single-thread fused MAC (simd active backend), operand GB/s. */
double
macGbs(const HeContext &ctx)
{
    const u64 n = ctx.ring().n;
    const u64 q = ctx.ring().ntt[0].modulus().value();
    std::vector<u64> a(n), b(n);
    for (u64 i = 0; i < n; ++i) {
        a[i] = mix64(i) % q;
        b[i] = mix64(i + n) % q;
    }
    std::vector<u128> acc(n);
    constexpr int kChain = 64; // A D0-long RowSel column.
    const simd::Kernels &k = simd::active();
    double sec = medianSeconds(9, [&] {
        std::fill(acc.begin(), acc.end(), u128{0});
        for (int c = 0; c < kChain; ++c)
            k.macAccumulate(acc.data(), a.data(), b.data(), n);
    });
    if (static_cast<u64>(acc[n / 2]) == 0x5eed)
        std::fprintf(stderr, " ");
    return 2.0 * 8.0 * static_cast<double>(n) * kChain / sec / 1e9;
}

/** In-process replay of one query and one registration, in spans. */
struct Replay
{
    pb::SpanLog spans;
    double answerMs = 0;
    ServerCountersSnapshot opsPerQuery;
    u64 expandSubs = 0;
    u64 foldExtProducts = 0;
    double lookupUs = 0;
    bool identical = true;
};

Replay
replayLayers(const Deployment &d, const PirParams &params, Identity &id,
             const std::vector<u8> &want)
{
    Replay rp;
    pb::SpanLog &sl = rp.spans;
    net::SessionRegistry &reg = d.server->registry();
    const HeContext &ctx = *d.ctx;
    u64 gen = 0;
    {
        std::lock_guard<std::mutex> lk(id.mu);
        if (reg.currentGeneration(id.clientId) != id.generation)
            id.generation = reg.registerClient(
                id.clientId, id.client->paramsBlob(), id.client->keyBlob());
        gen = id.generation;
    }
    const std::vector<u8> frame = net::encodeFrame(
        serializeQueryRef(PirQueryRef{id.clientId, gen, id.queries[0]}));

    auto timed = [&](const char *name, int parent, u64 req, auto &&fn) {
        int s = sl.begin(name, obs::nowNs(), parent, req);
        fn();
        sl.end(s, obs::nowNs());
    };
    for (int r = 0; r < kQueryReplays; ++r) {
        const u64 req = 1u << 20 | static_cast<u64>(r);
        int root = sl.begin("replay.query", obs::nowNs(), -1, req);
        std::vector<u8> payload;
        PirQueryRef ref;
        std::shared_ptr<const PirServer> engine;
        PirQuery q;
        std::vector<RgswCiphertext> sel;
        std::vector<BfvCiphertext> leaves;
        std::vector<std::vector<BfvCiphertext>> cols(
            static_cast<size_t>(params.planes));
        PirResponse resp;
        std::vector<u8> blob, out;
        timed("net.frame_decode", root, req, [&] {
            net::FrameCodec codec;
            codec.feed(frame);
            payload = std::move(*codec.next());
        });
        timed("wire.queryref_decode", root, req,
              [&] { ref = deserializeQueryRef(payload); });
        timed("registry.lookup", root, req,
              [&] { engine = reg.lookup(ref.clientId, ref.generation); });
        timed("wire.query_decode", root, req,
              [&] { q = deserializeQuery(ctx, ref.queryBlob); });
        ServerCountersSnapshot c0 = engine->counters().snapshot();
        timed("pir.expand_select", root, req, [&] {
            leaves = engine->expandAndSelect(q, 0, engine->localLevels(),
                                             sel);
        });
        ServerCountersSnapshot c1 = engine->counters().snapshot();
        timed("pir.rowsel", root, req, [&] {
            for (int p = 0; p < params.planes; ++p)
                cols[static_cast<size_t>(p)] = engine->rowSel(leaves, p);
        });
        ServerCountersSnapshot c2 = engine->counters().snapshot();
        timed("pir.fold", root, req, [&] {
            for (int p = 0; p < params.planes; ++p)
                resp.planes.push_back(engine->colTor(
                    std::move(cols[static_cast<size_t>(p)]), sel));
        });
        ServerCountersSnapshot c3 = engine->counters().snapshot();
        timed("wire.response_encode", root, req,
              [&] { blob = serializeResponse(ctx, resp); });
        timed("net.frame_encode", root, req,
              [&] { out = net::encodeFrame(blob); });
        sl.end(root, obs::nowNs());
        rp.expandSubs = c1.subsOps - c0.subsOps;
        rp.foldExtProducts = c3.externalProducts - c2.externalProducts;
        rp.identical = rp.identical && blob == want;
    }

    // The monolithic answer the socket thunk runs, and its exact ops.
    auto engine = reg.lookup(id.clientId, gen);
    PirQuery q = deserializeQuery(ctx, id.queries[0]);
    std::vector<double> answer_ms;
    for (int r = 0; r < kQueryReplays; ++r) {
        ServerCountersSnapshot c0 = engine->counters().snapshot();
        u64 t0 = obs::nowNs();
        std::vector<BfvCiphertext> planes = engine->processAllPlanes(q);
        answer_ms.push_back(msBetween(t0, obs::nowNs()));
        ServerCountersSnapshot c1 = engine->counters().snapshot();
        rp.opsPerQuery = {c1.subsOps - c0.subsOps,
                          c1.externalProducts - c0.externalProducts,
                          c1.plainMulAccs - c0.plainMulAccs};
        rp.identical = rp.identical &&
                       serializeResponse(ctx, PirResponse{planes}) == want;
    }
    rp.answerMs = pb::median(answer_ms);

    std::vector<double> lookup_us;
    for (int r = 0; r < 101; ++r) {
        u64 t0 = obs::nowNs();
        auto e = reg.lookup(id.clientId, gen);
        lookup_us.push_back(static_cast<double>(obs::nowNs() - t0) / 1e3);
    }
    rp.lookupUs = pb::median(lookup_us);

    const std::vector<u8> reg_frame = net::encodeFrame(
        serializeRegisterKeys(PirRegisterKeys{
            id.clientId, id.client->paramsBlob(), id.client->keyBlob()}));
    for (int r = 0; r < kRegisterReplays; ++r) {
        const u64 req = 2u << 20 | static_cast<u64>(r);
        int root = sl.begin("replay.register", obs::nowNs(), -1, req);
        std::vector<u8> payload;
        PirRegisterKeys rk;
        timed("net.frame_decode_reg", root, req, [&] {
            net::FrameCodec codec;
            codec.feed(reg_frame);
            payload = std::move(*codec.next());
        });
        timed("wire.register_decode", root, req,
              [&] { rk = deserializeRegisterKeys(payload); });
        timed("registry.register", root, req, [&] {
            u64 g = reg.registerClient(rk.clientId, rk.paramsBlob,
                                       rk.keyBlob);
            std::lock_guard<std::mutex> lk(id.mu);
            id.generation = g;
        });
        sl.end(root, obs::nowNs());
    }
    return rp;
}

double
medianSelfMs(const pb::SpanLog &sl, const char *name)
{
    return pb::median(sl.selfMs(name));
}

void
writeTrace(const std::string &path, const std::string &host,
           const std::vector<const pb::SpanLog *> &logs, u64 origin_ns,
           const ObsSnapshot &before, const ObsSnapshot &after)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    out << "{\"host\": " << host << ",\n\"spans\": [";
    bool first = true;
    for (size_t t = 0; t < logs.size(); ++t) {
        const auto &spans = logs[t]->spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            const pb::Span &s = spans[i];
            out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
                << "\", \"log\": " << t << ", \"id\": " << i
                << ", \"parent\": " << s.parent
                << ", \"request\": " << s.requestId << ", \"start_us\": "
                << pb::fmtNumber(
                       static_cast<double>(s.startNs - origin_ns) / 1e3)
                << ", \"dur_us\": "
                << pb::fmtNumber(static_cast<double>(logs[t]->durationNs(
                                     static_cast<int>(i))) /
                                 1e3)
                << ", \"self_us\": "
                << pb::fmtNumber(static_cast<double>(logs[t]->selfNs(
                                     static_cast<int>(i))) /
                                 1e3)
                << "}";
            first = false;
        }
    }
    out << "\n],\n\"registry_before\": " << before.json
        << ",\n\"registry_after\": " << after.json << "}\n";
}

/** The measured phase, merged across generator threads. */
struct Phase
{
    double wallSec = 0;
    pb::Tally tally;
    std::vector<double> latencyMs; ///< Untraced queries; failed = inf.
    std::vector<double> tracedMs;  ///< Traced queries (trace mode only).
    std::vector<double> registerMs;
    u64 reconnects = 0;
    ObsSnapshot before, after;
    std::vector<Worker> workers; ///< Kept for their spans.

    /** A failed request misses every limit: it reads as the phase. */
    double
    finite(double ms) const
    {
        return std::isfinite(ms) ? ms : wallSec * 1e3;
    }
};

/**
 * Closed-loop load for `seconds` (longer, up to kMaxOverrun times, while
 * p90 would have fewer than kMinBeyond samples beyond it), then the
 * decode of every response against the fill generator.
 */
Phase
measure(const Args &args, const WorkloadSpec &spec, const PirParams &params,
        Identities &ids, net::PirTcpServer &server)
{
    Phase ph;
    ph.workers.resize(static_cast<size_t>(spec.connections));
    const size_t min_samples = pb::minSamplesFor(0.90);
    std::atomic<size_t> samples{0};
    const u16 port = server.port();
    ph.before = snapshotObs(server);
    const u64 phase0 = obs::nowNs();
    const u64 deadline = phase0 + static_cast<u64>(args.seconds * 1e9);
    const u64 hard_deadline =
        phase0 + static_cast<u64>(args.seconds * kMaxOverrun * 1e9);
    std::vector<std::thread> gens;
    for (int t = 0; t < spec.connections; ++t) {
        gens.emplace_back([&, t] {
            Worker &w = ph.workers[static_cast<size_t>(t)];
            std::unique_ptr<net::PirTcpClient> conn;
            u64 rng = mix64(args.seed ^ (0xc0ffeeULL + static_cast<u64>(t)));
            for (u64 n = 0;; ++n) {
                u64 now = obs::nowNs();
                if (now >= hard_deadline ||
                    (now >= deadline && samples.load() >= min_samples))
                    break;
                rng = mix64(rng);
                int identity =
                    spec.churn ? static_cast<int>(rng % ids.size()) : t;
                int slot = static_cast<int>(
                    (rng >> 32) % static_cast<u64>(spec.poolPerIdentity));
                bool traced = args.trace && n % 2 == 0;
                try {
                    attemptQuery(conn, port,
                                 *ids[static_cast<size_t>(identity)],
                                 identity, slot, traced,
                                 (static_cast<u64>(t) << 32) | n, w);
                } catch (const Error &) {
                    // Could not even connect: an attempt that failed.
                    w.tally.record(pb::Outcome::Error);
                    w.latencyMs.push_back(
                        std::numeric_limits<double>::infinity());
                    conn.reset();
                }
                samples.fetch_add(1);
            }
        });
    }
    for (auto &g : gens)
        g.join();
    ph.wallSec = static_cast<double>(obs::nowNs() - phase0) / 1e9;
    ph.after = snapshotObs(server);

    // Correctness of every response, outside the timed interval.
    for (Worker &w : ph.workers) {
        for (const Worker::Answer &a : w.answers)
            if (!decodesCorrectly(params, args.seed,
                                  *ids[static_cast<size_t>(a.identity)],
                                  a.slot, a.response))
                w.tally.markMismatch();
        w.answers.clear();
        ph.tally += w.tally;
        ph.latencyMs.insert(ph.latencyMs.end(), w.latencyMs.begin(),
                            w.latencyMs.end());
        ph.tracedMs.insert(ph.tracedMs.end(), w.tracedMs.begin(),
                           w.tracedMs.end());
        ph.registerMs.insert(ph.registerMs.end(), w.registerMs.begin(),
                             w.registerMs.end());
        ph.reconnects += w.reconnects;
    }
    return ph;
}

std::vector<pb::Metric>
endToEndMetrics(const Phase &ph, const std::vector<double> &register_ms,
                const std::vector<double> &setup_s,
                const std::vector<double> &server_mib)
{
    const double answered =
        static_cast<double>(ph.tally.answeredCorrectly());
    return {
        {"qps", "1/s", answered / ph.wallSec},
        {"latency_p50_ms", "ms",
         ph.finite(pb::percentile(ph.latencyMs, 0.50))},
        {"latency_p90_ms", "ms",
         ph.finite(pb::percentile(ph.latencyMs, 0.90))},
        {"register_p50_ms", "ms", pb::median(register_ms)},
        {"success_rate", "ratio",
         answered / static_cast<double>(std::max<u64>(1, ph.tally.attempted))},
        {"setup_s", "s", pb::median(setup_s)},
        {"server_mem_mib", "MiB", pb::median(server_mib)},
    };
}

std::vector<pb::Metric>
perLayerMetrics(const Phase &ph, const Replay &rp, const Deployment &dep,
                const PirParams &params, int nproc)
{
    const double db_bytes = static_cast<double>(params.numEntries()) *
                            params.planes *
                            static_cast<double>(dep.ctx->ring().words()) *
                            8.0;
    const double stream = streamReadGbs(*dep.db, nproc, db_bytes);
    const double expand_ms = medianSelfMs(rp.spans, "pir.expand_select");
    const double rowsel_ms = medianSelfMs(rp.spans, "pir.rowsel");
    const double fold_ms = medianSelfMs(rp.spans, "pir.fold");
    const double rowsel_gbs = db_bytes / (rowsel_ms / 1e3) / 1e9;

    // Ledger closure: the traced socket round trip against the replayed
    // layers' self times plus what only the socket path adds.
    const double rt_p50 = ph.finite(pb::percentile(ph.tracedMs, 0.50));
    const double transport = rt_p50 - rp.answerMs;
    double layers = 0;
    for (const char *n :
         {"net.frame_decode", "wire.queryref_decode", "registry.lookup",
          "wire.query_decode", "pir.expand_select", "pir.rowsel", "pir.fold",
          "wire.response_encode", "net.frame_encode"})
        layers += medianSelfMs(rp.spans, n);

    const ObsSnapshot &b = ph.before, &a = ph.after;
    const double answered = std::max<double>(
        1.0, static_cast<double>(ph.tally.answeredCorrectly()));
    auto per_query = [&](u64 after_v, u64 before_v) {
        return static_cast<double>(after_v - before_v) / answered;
    };
    return {
        {"pir.expand_select_ms", "ms", expand_ms},
        {"pir.rowsel_ms", "ms", rowsel_ms},
        {"pir.fold_ms", "ms", fold_ms},
        {"pir.answer_ms", "ms", rp.answerMs},
        {"stage.expand_p50_ms", "ms", p50Ms(delta(a.expand, b.expand))},
        {"stage.selectors_p50_ms", "ms",
         p50Ms(delta(a.selectors, b.selectors))},
        {"stage.rowsel_p50_ms", "ms", p50Ms(delta(a.rowsel, b.rowsel))},
        {"stage.fold_p50_ms", "ms", p50Ms(delta(a.fold, b.fold))},
        {"pir.ops.subs", "count",
         static_cast<double>(rp.opsPerQuery.subsOps)},
        {"pir.ops.external_products", "count",
         static_cast<double>(rp.opsPerQuery.externalProducts)},
        {"pir.ops.plain_macs", "count",
         static_cast<double>(rp.opsPerQuery.plainMulAccs)},
        {"mem.stream_read_gbs", "GB/s", stream},
        {"rowsel.db_gbs", "GB/s", rowsel_gbs},
        {"rowsel.bw_frac", "ratio", rowsel_gbs / stream},
        {"kernel.ntt_fwd_us", "us", nttForwardUs(*dep.ctx)},
        {"kernel.mac_gbs", "GB/s", macGbs(*dep.ctx)},
        {"expand.subs_per_s", "1/s",
         static_cast<double>(rp.expandSubs) / (expand_ms / 1e3)},
        {"fold.extprod_per_s", "1/s",
         static_cast<double>(rp.foldExtProducts) / (fold_ms / 1e3)},
        {"pool.busy_frac", "ratio",
         static_cast<double>(a.poolBusyNs - b.poolBusyNs) /
             (ph.wallSec * 1e9 * ThreadPool::global().size())},
        {"dispatch.window_wait_p50_ms", "ms",
         p50Ms(delta(a.windowWait, b.windowWait))},
        {"dispatch.batch_size_mean", "count",
         delta(a.batchSize, b.batchSize).mean()},
        {"wire.query_decode_ms", "ms",
         medianSelfMs(rp.spans, "wire.query_decode")},
        {"wire.response_encode_ms", "ms",
         medianSelfMs(rp.spans, "wire.response_encode")},
        {"wire.register_decode_ms", "ms",
         medianSelfMs(rp.spans, "wire.register_decode")},
        {"registry.register_ms", "ms",
         medianSelfMs(rp.spans, "registry.register")},
        {"registry.lookup_us", "us", rp.lookupUs},
        {"registry.miss_ratio", "ratio",
         static_cast<double>(ph.tally.refused) /
             static_cast<double>(std::max<u64>(1, ph.tally.queryRefsSent))},
        {"registry.evictions_per_100q", "count",
         100.0 * per_query(a.registry.evicted, b.registry.evicted)},
        {"registry.engine_mib", "MiB",
         static_cast<double>(a.registry.bytes) / kMiB},
        {"net.frame_decode_reg_ms", "ms",
         medianSelfMs(rp.spans, "net.frame_decode_reg")},
        {"net.bytes_in_per_query", "B", per_query(a.net.bytesIn, b.net.bytesIn)},
        {"net.bytes_out_per_query", "B",
         per_query(a.net.bytesOut, b.net.bytesOut)},
        {"net.transport_ms", "ms", transport},
        {"net.unaccounted_frac", "ratio",
         (rt_p50 - layers - transport) / rt_p50},
        {"db.resident_mib", "MiB", db_bytes / kMiB},
        {"error_rate", "ratio", ph.tally.errorRate()},
        {"trace.overhead_ms", "ms",
         rt_p50 - ph.finite(pb::percentile(ph.latencyMs, 0.50))},
        {"trace.roundtrip_p50_ms", "ms", rt_p50},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload single_client|multi_client|"
                     "key_churn --seed N --seconds S --trace 0|1 "
                     "[--trace-out FILE]\n",
                     argv[0]);
        return 2;
    }
    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    std::optional<WorkloadSpec> spec = specFor(args.workload, nproc);
    if (!spec) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    try {
        ThreadPool::setGlobalThreads(nproc);
        const PirParams params = paperShape();
        const u64 origin = obs::nowNs();

        char host[512];
        std::snprintf(host, sizeof host,
                      "{\"nproc\": %d, \"isa\": \"%s\", \"cpu\": \"%s\", "
                      "\"build_type\": \"%s\", \"pool_threads\": %d, "
                      "\"generator_threads\": %d}",
                      nproc, simd::active().name, cpuModel().c_str(),
                      IVE_LEDGER_BUILD_TYPE, ThreadPool::global().size(),
                      spec->connections);
        std::printf("host %s\n", host);
        std::fflush(stdout);

        Identities ids = makeIdentities(params, *spec, args.seed, nproc);

        std::vector<double> register_ms, setup_s, server_mib;
        Deployment dep;
        for (int rep = 0; rep < kSetupRepetitions; ++rep) {
            tearDown(dep);
            SetupSample s;
            dep = setUp(params, args.seed, ids, register_ms, s);
            setup_s.push_back(s.seconds);
            server_mib.push_back(s.serverMiB);
        }

        std::vector<u8> reference_response;
        bool correct = checkAgainstSession(
            params, args.seed, ids, dep.server->port(), reference_response);

        Phase ph = measure(args, *spec, params, ids, *dep.server);
        correct = correct && ph.tally.mismatches == 0;
        register_ms.insert(register_ms.end(), ph.registerMs.begin(),
                           ph.registerMs.end());
        std::printf("phase: %.2f s, %llu attempted, %llu failed, %zu "
                    "latency samples (%zu beyond p90), %llu refused, "
                    "%llu reconnects, %zu registrations\n",
                    ph.wallSec,
                    static_cast<unsigned long long>(ph.tally.attempted),
                    static_cast<unsigned long long>(ph.tally.failed),
                    ph.latencyMs.size(),
                    pb::samplesBeyond(ph.latencyMs.size(), 0.90),
                    static_cast<unsigned long long>(ph.tally.refused),
                    static_cast<unsigned long long>(ph.reconnects),
                    register_ms.size());

        std::vector<pb::Metric> metrics;
        if (!args.trace) {
            metrics = endToEndMetrics(ph, register_ms, setup_s, server_mib);
        } else {
            Replay rp = replayLayers(dep, params, *ids[0],
                                     reference_response);
            correct = correct && rp.identical;
            metrics = perLayerMetrics(ph, rp, dep, params, nproc);
            std::vector<const pb::SpanLog *> logs;
            for (const Worker &w : ph.workers)
                logs.push_back(&w.spans);
            logs.push_back(&rp.spans);
            writeTrace(args.traceOut, host, logs, origin, ph.before,
                       ph.after);
        }

        dep.server->drain();
        tearDown(dep);
        correct = correct && pb::allFinite(metrics);
        std::printf("%s\n", pb::resultLine(correct, ph.tally.attempted,
                                           ph.tally.failed, metrics)
                                .c_str());
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "benchmark failed: %s\n", e.what());
        return 1;
    }
}
