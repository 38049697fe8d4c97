/**
 * @file
 * Network front-end tests: framing, session registry, epoll server.
 *
 * Three layers, tested bottom-up. FrameCodec gets pure byte-level
 * tests (split prefixes, hostile declared sizes, poisoning).
 * SessionRegistry gets LRU/generation/budget semantics plus a
 * concurrent stress the TSan configuration is meant for. The
 * socket tests then hold the end-to-end contract: a response read
 * off a TCP connection is byte-identical to what the in-process
 * ServerSession::answer() path produces for the same query — across
 * interleaved clients, pipelined queries, backpressure, and every
 * net.* failpoint recipe that leaves the connection alive. Hostile
 * input (garbage magic, oversized frames, slowloris silence) must
 * produce typed errors or clean disconnects, never a crash or hang.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <fstream>
#include <future>
#include <optional>
#include <thread>

#include "common/failpoint.hh"
#include "counter_delta.hh"
#include "fixtures.hh"
#include "net/client.hh"
#include "net/server.hh"

using namespace ive;
using net::FrameCodec;
using net::FrameError;
using net::PirTcpClient;
using net::PirTcpServer;
using net::SessionRegistry;
using net::StaleGenerationError;
using net::UnknownClientError;

namespace {

/** Small geometry: engines build in milliseconds, blobs stay small. */
PirParams
netParams(u64 d0 = 8, int d = 1)
{
    PirParams p = PirParams::testSmall();
    p.he.n = 256;
    p.d0 = d0;
    p.d = d;
    return p;
}

/** TCP server over a deterministically filled shared database. */
struct NetFixture
{
    explicit NetFixture(net::NetServerConfig cfg = latencyConfig())
        : params(netParams()), ctx(params.he), db(ctx, params)
    {
        db.fill(contentGenerator(params));
        server.emplace(ctx, params, &db, cfg);
    }

    /** Tests are request/response; skip the batching window. */
    static net::NetServerConfig
    latencyConfig()
    {
        net::NetServerConfig cfg;
        cfg.scheduler.windowSec = 0.0;
        return cfg;
    }

    PirTcpClient
    connect(double timeout_sec = 10.0)
    {
        return PirTcpClient("127.0.0.1", server->port(), timeout_sec);
    }

    PirParams params;
    HeContext ctx;
    Database db;
    std::optional<PirTcpServer> server;
};

/**
 * The byte-identity reference: an in-process ServerSession over the
 * same database content and the same client keys. Acceptance is
 * ref.answer(query) == bytes read off the socket.
 */
struct RefServer
{
    explicit RefServer(ClientSession &client)
        : sess(client.paramsBlob())
    {
        sess.database().fill(contentGenerator(sess.params()));
        sess.ingestKeys(client.keyBlob());
    }

    std::vector<u8>
    answer(std::span<const u8> query_blob)
    {
        return sess.answer(query_blob);
    }

    ServerSession sess;
};

/** Disarms every failpoint on scope exit, pass or fail. */
struct FailpointGuard
{
    explicit FailpointGuard(const std::string &spec)
    {
        fail::armFromSpec(spec);
    }
    ~FailpointGuard() { fail::disarmAll(); }
};

/** This process's resident set, from /proc/self/statm. */
i64
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    i64 size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<i64>(::sysconf(_SC_PAGESIZE));
}

/**
 * A plain accepting socket on a loopback port: what a client sends
 * arrives here exactly as written, with no codec in between. Accepts
 * and reads give up after 10 s, so a failed client cannot hang a test.
 */
class RawPeer
{
  public:
    /** rcvbuf > 0 shrinks the receive buffer accepted sockets get. */
    explicit RawPeer(int rcvbuf = 0)
    {
        listen_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (rcvbuf > 0)
            (void)::setsockopt(listen_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                               sizeof rcvbuf);
        setTimeout(listen_);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof addr;
        auto *sa = reinterpret_cast<sockaddr *>(&addr);
        if (::bind(listen_, sa, len) != 0 || ::listen(listen_, 1) != 0 ||
            ::getsockname(listen_, sa, &len) != 0)
            throw Error("raw peer: cannot listen on loopback");
        port_ = ntohs(addr.sin_port);
    }

    ~RawPeer()
    {
        if (conn_ >= 0)
            ::close(conn_);
        ::close(listen_);
    }

    RawPeer(const RawPeer &) = delete;
    RawPeer &operator=(const RawPeer &) = delete;

    u16 port() const { return port_; }

    /** Accepts the one connection; false on timeout. */
    bool
    accept()
    {
        conn_ = ::accept4(listen_, nullptr, nullptr, SOCK_CLOEXEC);
        if (conn_ >= 0)
            setTimeout(conn_);
        return conn_ >= 0;
    }

    /** Reads n bytes, at most chunk per recv(), sleeping pause after
     *  each; returns fewer on EOF or timeout. */
    std::vector<u8>
    read(size_t n, size_t chunk, std::chrono::microseconds pause)
    {
        std::vector<u8> out(n);
        size_t got = 0;
        while (got < n) {
            ssize_t r = ::recv(conn_, out.data() + got,
                               std::min(chunk, n - got), 0);
            if (r < 0 && errno == EINTR)
                continue;
            if (r <= 0)
                break;
            got += static_cast<size_t>(r);
            std::this_thread::sleep_for(pause);
        }
        out.resize(got);
        return out;
    }

    void
    write(std::span<const u8> bytes)
    {
        while (!bytes.empty()) {
            ssize_t r = ::send(conn_, bytes.data(), bytes.size(),
                               MSG_NOSIGNAL);
            if (r <= 0)
                return;
            bytes = bytes.subspan(static_cast<size_t>(r));
        }
    }

  private:
    static void
    setTimeout(int fd)
    {
        timeval tv{};
        tv.tv_sec = 10;
        (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }

    int listen_ = -1;
    int conn_ = -1;
    u16 port_ = 0;
};

} // namespace

// ---------------------------------------------------------------------
// FrameCodec: stream-to-message reassembly, defensively.

TEST(Frame, RoundTripOneByteAtATime)
{
    FrameCodec codec;
    std::vector<u8> wire;
    std::vector<std::vector<u8>> payloads = {
        {1}, {2, 3, 4}, std::vector<u8>(1000, 0xab)};
    for (const auto &p : payloads)
        net::appendFrame(wire, p);

    std::vector<std::vector<u8>> got;
    for (u8 byte : wire) {
        codec.feed(std::span<const u8>(&byte, 1));
        while (auto p = codec.next())
            got.push_back(std::move(*p));
    }
    EXPECT_EQ(got, payloads);
    EXPECT_EQ(codec.buffered(), 0u);
    EXPECT_FALSE(codec.midFrame());

    // A multi-MiB payload in 64 KiB reads (the server's recv chunk),
    // so the header and many chunk edges fall inside one frame. It
    // comes out in the buffer its header sized: no growth on the way.
    std::vector<u8> big(3 * (1u << 20) + 17);
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<u8>(i * 131 + 7);
    std::vector<u8> big_wire = net::encodeFrame(big);
    std::span<const u8> rest = big_wire;
    std::vector<std::vector<u8>> got_big;
    while (!rest.empty()) {
        size_t take = std::min<size_t>(rest.size(), 64 * 1024);
        codec.feed(rest.first(take));
        rest = rest.subspan(take);
        EXPECT_EQ(codec.hasCompleteFrame(), rest.empty());
        while (auto p = codec.next())
            got_big.push_back(std::move(*p));
    }
    ASSERT_EQ(got_big.size(), 1u);
    EXPECT_TRUE(got_big[0] == big);
    EXPECT_EQ(got_big[0].capacity(), big.size());
    EXPECT_EQ(codec.buffered(), 0u);
    EXPECT_FALSE(codec.midFrame());
}

TEST(Frame, MultipleFramesInOneFeed)
{
    FrameCodec codec;
    std::vector<u8> wire;
    net::appendFrame(wire, std::vector<u8>{9});
    net::appendFrame(wire, std::vector<u8>{8, 7});
    // Plus a partial third frame: header only.
    std::vector<u8> third = net::encodeFrame(std::vector<u8>{6, 5, 4});
    wire.insert(wire.end(), third.begin(),
                third.begin() + net::kFrameHeaderBytes);

    codec.feed(wire);
    EXPECT_TRUE(codec.hasCompleteFrame());
    EXPECT_EQ(codec.next().value(), std::vector<u8>{9});
    EXPECT_EQ(codec.next().value(), (std::vector<u8>{8, 7}));
    EXPECT_FALSE(codec.hasCompleteFrame());
    EXPECT_TRUE(codec.midFrame()); // Header buffered, payload pending.
    EXPECT_EQ(codec.next(), std::nullopt);

    codec.feed(std::span<const u8>(third.data() +
                                       net::kFrameHeaderBytes,
                                   3));
    EXPECT_EQ(codec.next().value(), (std::vector<u8>{6, 5, 4}));

    // A multi-MiB frame, a small frame and half a header in one feed:
    // bytes past a frame's end start the next frame.
    std::vector<u8> big(5 * (1u << 20) + 3);
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<u8>(i * 31 + 1);
    std::vector<u8> more;
    net::appendFrame(more, big);
    net::appendFrame(more, std::vector<u8>{3, 2});
    std::vector<u8> last = net::encodeFrame(std::vector<u8>{1});
    more.insert(more.end(), last.begin(), last.begin() + 2);
    codec.feed(more);
    std::optional<std::vector<u8>> first = codec.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(*first == big);
    EXPECT_EQ(codec.next().value(), (std::vector<u8>{3, 2}));
    EXPECT_EQ(codec.next(), std::nullopt);
    EXPECT_EQ(codec.buffered(), 2u); // Half a header.
    EXPECT_TRUE(codec.midFrame());
    codec.feed(std::span<const u8>(last).subspan(2));
    EXPECT_EQ(codec.next().value(), std::vector<u8>{1});
    EXPECT_EQ(codec.buffered(), 0u);
    EXPECT_FALSE(codec.midFrame());
}

TEST(Frame, ZeroLengthFramePoisons)
{
    FrameCodec codec;
    const u8 zeros[4] = {0, 0, 0, 0};
    codec.feed(zeros);
    EXPECT_TRUE(codec.hasCompleteFrame()); // next() throws promptly.
    EXPECT_THROW(codec.next(), FrameError);
    // Poisoned: no resync is possible on a broken stream.
    EXPECT_THROW(codec.next(), FrameError);
    EXPECT_THROW(codec.feed(zeros), FrameError);
    EXPECT_TRUE(codec.hasCompleteFrame());
}

TEST(Frame, OversizedDeclaredLengthRejectedBeforeBuffering)
{
    FrameCodec codec(16);
    // Header claims 1 MiB; only the 4 header bytes ever arrive.
    const u8 header[4] = {0, 0, 0x10, 0};
    codec.feed(header);
    EXPECT_EQ(codec.buffered(), 4u); // Nothing was ever allocated.
    try {
        codec.next();
        FAIL() << "oversized frame accepted";
    } catch (const FrameError &e) {
        EXPECT_NE(std::string(e.what()).find("cap"),
                  std::string::npos);
    }
}

TEST(Frame, EncodeRejectsEmptyAndCodecRejectsZeroMax)
{
    EXPECT_THROW(net::encodeFrame({}), std::invalid_argument);
    EXPECT_THROW(FrameCodec(0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// SessionRegistry: keys once, then queries by reference.

namespace {

/** Registry over a tiny deployment plus N ready-made clients. */
struct RegistryFixture
{
    explicit RegistryFixture(int num_clients,
                             net::RegistryConfig cfg = {})
        : params(netParams()), ctx(params.he), db(ctx, params)
    {
        db.fill(contentGenerator(params));
        for (int i = 0; i < num_clients; ++i)
            clients.emplace_back(params, 100 + static_cast<u64>(i));
        registry.emplace(ctx, params, &db, cfg);
    }

    u64
    registerClient(size_t i)
    {
        return registry->registerClient(i, clients[i].paramsBlob(),
                                        clients[i].keyBlob());
    }

    PirParams params;
    HeContext ctx;
    Database db;
    std::deque<ClientSession> clients; ///< Non-movable; stable refs.
    std::optional<SessionRegistry> registry;
};

/** Budget that fits exactly `n` sessions of this key-blob size. */
net::RegistryConfig
budgetFor(const RegistryFixture &f, u64 n)
{
    net::RegistryConfig cfg;
    cfg.memoryBudgetBytes = n * f.clients[0].keyBlob().size();
    return cfg;
}

} // namespace

TEST(Registry, RegisterLookupGenerations)
{
    RegistryFixture f(2);
    EXPECT_EQ(f.registry->currentGeneration(0), 0u);
    u64 g0 = f.registerClient(0);
    u64 g1 = f.registerClient(1);
    EXPECT_GE(g0, 1u);
    EXPECT_GT(g1, g0); // Globally monotonic, never reused.
    EXPECT_EQ(f.registry->currentGeneration(0), g0);

    auto engine = f.registry->lookup(0, g0);
    ASSERT_NE(engine, nullptr);
    EXPECT_THROW(f.registry->lookup(0, g0 + 1), StaleGenerationError);
    EXPECT_THROW(f.registry->lookup(42, 1), UnknownClientError);

    net::RegistryStats st = f.registry->stats();
    EXPECT_EQ(st.active, 2u);
    EXPECT_EQ(st.registered, 2u);
    EXPECT_EQ(st.evicted, 0u);
}

TEST(Registry, ReRegistrationInvalidatesOldGeneration)
{
    RegistryFixture f(1);
    u64 g1 = f.registerClient(0);
    u64 g2 = f.registerClient(0);
    EXPECT_GT(g2, g1);
    EXPECT_THROW(f.registry->lookup(0, g1), StaleGenerationError);
    EXPECT_NE(f.registry->lookup(0, g2), nullptr);
    net::RegistryStats st = f.registry->stats();
    EXPECT_EQ(st.active, 1u);
    EXPECT_EQ(st.replaced, 1u);
    // Replacement must not leak the old session's bytes.
    EXPECT_EQ(st.bytes, f.clients[0].keyBlob().size());
}

TEST(Registry, LruEvictsLeastRecentlyTouched)
{
    RegistryFixture probe(3);
    RegistryFixture f(3, budgetFor(probe, 2));
    u64 g0 = f.registerClient(0);
    u64 g1 = f.registerClient(1);
    // Touch 0 so 1 becomes the LRU tail.
    (void)f.registry->lookup(0, g0);
    u64 g2 = f.registerClient(2);

    EXPECT_THROW(f.registry->lookup(1, g1), UnknownClientError);
    EXPECT_NE(f.registry->lookup(0, g0), nullptr);
    EXPECT_NE(f.registry->lookup(2, g2), nullptr);
    net::RegistryStats st = f.registry->stats();
    EXPECT_EQ(st.active, 2u);
    EXPECT_EQ(st.evicted, 1u);
    EXPECT_LE(st.bytes, 2 * f.clients[0].keyBlob().size());
}

TEST(Registry, SessionLargerThanBudgetIsRejected)
{
    RegistryFixture probe(1);
    net::RegistryConfig cfg;
    cfg.memoryBudgetBytes = probe.clients[0].keyBlob().size() - 1;
    RegistryFixture f(1, cfg);
    EXPECT_THROW(f.registerClient(0), Overloaded);
    EXPECT_EQ(f.registry->stats().active, 0u);
}

TEST(Registry, OverBudgetUploadIsRejectedBeforeDecoding)
{
    // The size check comes first: an upload that can never fit is
    // refused as Overloaded without decoding a byte, even when both
    // blobs are garbage that the decoders would reject.
    net::RegistryConfig cfg;
    cfg.memoryBudgetBytes = 1024;
    RegistryFixture f(0, cfg);
    const std::vector<u8> garbage(2048, 0xee);
    EXPECT_THROW(f.registry->registerClient(3, garbage, garbage),
                 Overloaded);
    EXPECT_THROW(f.registry->registerClient(
                     3, garbage, std::span(garbage).first(1024)),
                 SerializeError);
    EXPECT_EQ(f.registry->stats().active, 0u);
}

TEST(Registry, MismatchedParamsRejected)
{
    RegistryFixture f(1);
    PirParams other = netParams(16, 1); // Different geometry.
    ClientSession stranger(other, 5);
    EXPECT_THROW(f.registry->registerClient(9, stranger.paramsBlob(),
                                            stranger.keyBlob()),
                 SerializeError);
}

TEST(Registry, EvictedEngineStaysUsableWhilePinned)
{
    RegistryFixture probe(2);
    RegistryFixture f(2, budgetFor(probe, 1));
    u64 g0 = f.registerClient(0);
    std::shared_ptr<const PirServer> pinned =
        f.registry->lookup(0, g0);

    u64 g1 = f.registerClient(1); // Evicts client 0.
    EXPECT_THROW(f.registry->lookup(0, g0), UnknownClientError);
    (void)g1;

    // The pin keeps the evicted engine fully answerable: this is what
    // lets an in-flight query complete across a concurrent eviction.
    PirQuery q = deserializeQuery(
        f.ctx, f.clients[0].queryBlob(3));
    PirResponse resp{pinned->processAllPlanes(q)};
    auto planes = f.clients[0].decodeResponse(
        serializeResponse(f.ctx, resp));
    ASSERT_EQ(planes.size(), 1u);
    EXPECT_EQ(planes[0], dbContent(f.params, 3, 0));
}

TEST(Registry, BudgetInvariantHoldsAcrossChurn)
{
    RegistryFixture probe(1);
    const u64 blob = probe.clients[0].keyBlob().size();
    net::RegistryConfig cfg;
    cfg.memoryBudgetBytes = 3 * blob;
    cfg.maxSessions = 2; // The count cap binds before the byte cap.
    RegistryFixture f(6, cfg);

    // Deterministic churn: registrations, touches, re-registrations.
    std::vector<u64> gens(f.clients.size(), 0);
    Rng rng(7);
    for (int step = 0; step < 60; ++step) {
        size_t i = rng.next() % f.clients.size();
        if (step % 3 == 2 && gens[i] != 0) {
            try {
                (void)f.registry->lookup(i, gens[i]);
            } catch (const UnknownClientError &) {
                gens[i] = 0; // Evicted since; re-register later.
            }
        } else {
            gens[i] = f.registerClient(i);
        }
        net::RegistryStats st = f.registry->stats();
        EXPECT_LE(st.bytes, cfg.memoryBudgetBytes);
        EXPECT_LE(st.active, cfg.maxSessions);
        EXPECT_EQ(st.bytes, st.active * blob);
        EXPECT_EQ(st.active + st.evicted,
                  st.registered - st.replaced);
    }
    EXPECT_GT(f.registry->stats().evicted, 0u);
}

TEST(Registry, ConcurrentRegisterEvictLookup)
{
    RegistryFixture probe(1);
    RegistryFixture f(4, budgetFor(probe, 2));

    // 4 threads churn 4 client ids through a 2-session registry:
    // every lookup outcome must be a valid engine or a typed error,
    // and the invariants must hold at the end. TSan-targeted.
    std::atomic<u64> served{0};
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int it = 0; it < 6; ++it) {
                u64 gen = f.registerClient(t);
                for (int l = 0; l < 3; ++l) {
                    try {
                        auto engine = f.registry->lookup(t, gen);
                        ASSERT_NE(engine, nullptr);
                        PirQuery q = deserializeQuery(
                            f.ctx, f.clients[t].queryBlob(t));
                        PirResponse resp{
                            engine->processAllPlanes(q)};
                        auto planes = f.clients[t].decodeResponse(
                            serializeResponse(f.ctx, resp));
                        ASSERT_EQ(planes[0],
                                  dbContent(f.params, t, 0));
                        served.fetch_add(1);
                    } catch (const UnknownClientError &) {
                        // Evicted by a sibling: legal outcome.
                    } catch (const StaleGenerationError &) {
                        // Re-registered by a racing iteration of
                        // this same id is impossible (one thread per
                        // id), but eviction + nothing is Unknown;
                        // stale can only come from our own later
                        // register, which hasn't happened. Fail.
                        FAIL() << "unexpected stale generation";
                    }
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();

    net::RegistryStats st = f.registry->stats();
    EXPECT_LE(st.active, 2u);
    EXPECT_EQ(st.active + st.evicted, st.registered - st.replaced);
    EXPECT_GT(served.load(), 0u);
}

// ---------------------------------------------------------------------
// ShardDispatcher delivery flavors (the front-end's contract).

TEST(DispatcherCallbacks, ThunkAndCallbackDeliver)
{
    SchedulerConfig cfg;
    cfg.windowSec = 0.0;
    ShardDispatcher d(cfg);

    std::promise<std::vector<u8>> done;
    d.submit(
        std::vector<u8>{1, 2, 3},
        [](const std::vector<u8> &blob) {
            std::vector<u8> out = blob;
            out.push_back(9);
            return out;
        },
        [&](std::vector<u8> resp, std::exception_ptr err) {
            ASSERT_FALSE(err);
            done.set_value(std::move(resp));
        });
    EXPECT_EQ(done.get_future().get(), (std::vector<u8>{1, 2, 3, 9}));
}

TEST(DispatcherCallbacks, ThunkErrorArrivesAsExceptionPtr)
{
    SchedulerConfig cfg;
    cfg.windowSec = 0.0;
    ShardDispatcher d(cfg);

    std::promise<std::exception_ptr> done;
    d.submit(
        std::vector<u8>{1},
        [](const std::vector<u8> &) -> std::vector<u8> {
            throw SerializeError("bad blob");
        },
        [&](std::vector<u8>, std::exception_ptr err) {
            done.set_value(err);
        });
    std::exception_ptr err = done.get_future().get();
    ASSERT_TRUE(err);
    EXPECT_THROW(std::rethrow_exception(err), SerializeError);
}

TEST(DispatcherCallbacks, ShutdownRejectsViaCallbackNotThrow)
{
    SchedulerConfig cfg;
    cfg.windowSec = 0.0;
    ShardDispatcher d(cfg);
    d.shutdown();

    std::promise<std::exception_ptr> done;
    d.submit(
        std::vector<u8>{1},
        [](const std::vector<u8> &blob) { return blob; },
        [&](std::vector<u8>, std::exception_ptr err) {
            done.set_value(err);
        });
    std::exception_ptr err = done.get_future().get();
    ASSERT_TRUE(err);
    EXPECT_THROW(std::rethrow_exception(err), ShutdownError);
}

TEST(DispatcherCallbacks, QueueDepthGaugeSumsOverDispatchers)
{
    // A server runs a query lane and a registration lane, and both move
    // the one process-wide depth gauge: holding 2 and 1 queued items
    // they raise it by 3, not to the last writer's own depth.
    obs::Gauge &depth =
        obs::Registry::global().gauge(obs::names::kDispatchQueueDepth);
    const i64 before = depth.value();
    SchedulerConfig cfg;
    cfg.windowSec = 5.0; // Items wait in the window until shutdown.
    std::atomic<int> done{0};
    {
        ShardDispatcher d1(cfg), d2(cfg);
        auto work = [](const std::vector<u8> &blob) { return blob; };
        auto count = [&](std::vector<u8>, std::exception_ptr) { ++done; };
        d1.submit({1}, work, count);
        d1.submit({2}, work, count);
        d2.submit({3}, work, count);
        EXPECT_EQ(depth.value() - before, 3);
        d1.shutdown();
        d2.shutdown();
    }
    EXPECT_EQ(done.load(), 3);
    EXPECT_EQ(depth.value(), before);
}

// ---------------------------------------------------------------------
// Socket end-to-end: byte identity with the in-process path.

TEST(NetServer, EndToEndByteIdentity)
{
    NetFixture f;
    ClientSession cl(f.params, 7);
    RefServer ref(cl);
    PirTcpClient tcp = f.connect();

    EXPECT_EQ(tcp.hello(7).generation, 0u); // Not yet registered.
    u64 gen = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());
    EXPECT_GE(gen, 1u);
    EXPECT_EQ(tcp.hello(7).generation, gen);

    for (u64 entry = 0; entry < f.params.numEntries(); ++entry) {
        std::vector<u8> qblob = cl.queryBlob(entry);
        std::vector<u8> got = tcp.query(7, gen, qblob);
        EXPECT_EQ(got, ref.answer(qblob))
            << "socket response differs from ServerSession::answer() "
               "for entry "
            << entry;
        auto planes = cl.decodeResponse(got);
        ASSERT_EQ(planes.size(), 1u);
        EXPECT_EQ(planes[0], dbContent(f.params, entry, 0));
    }

    net::NetServerStats st = f.server->stats();
    EXPECT_EQ(st.accepted, 1u);
    EXPECT_EQ(st.errorFrames, 0u);
    EXPECT_GT(st.framesIn, f.params.numEntries());
    EXPECT_EQ(f.server->registry().stats().registered, 1u);
}

TEST(NetServer, SocketQueryRecordsSessionTelemetry)
{
    // A socket query runs the same answer path as an in-process
    // session, so it lands in the same registry families: one query,
    // its blob bytes in and out, one answer and one serialize sample.
    NetFixture f;
    ClientSession cl(f.params, 7);
    PirTcpClient tcp = f.connect();
    u64 gen = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());
    std::vector<u8> qblob = cl.queryBlob(5);

    namespace n = obs::names;
    obs::Registry &r = obs::Registry::global();
    CounterDelta queries(n::kSessionQueries);
    CounterDelta req_bytes(n::kSessionRequestBytes);
    CounterDelta resp_bytes(n::kSessionResponseBytes);
    obs::Histogram &answer = r.histogram(n::kStageAnswer);
    obs::Histogram &serialize = r.histogram(n::kStageSerialize);
    const u64 ans0 = answer.snapshot().count;
    const u64 ser0 = serialize.snapshot().count;

    // The engine records before the thunk returns, and the response
    // leaves the server only after that, so reading it orders both.
    std::vector<u8> got = tcp.query(7, gen, qblob);
    EXPECT_EQ(cl.decodeResponse(got)[0], dbContent(f.params, 5, 0));

    EXPECT_EQ(queries(), 1u);
    EXPECT_EQ(req_bytes(), qblob.size());
    EXPECT_EQ(resp_bytes(), got.size());
    EXPECT_EQ(answer.snapshot().count - ans0, 1u);
    EXPECT_EQ(serialize.snapshot().count - ser0, 1u);
}

TEST(NetServer, ThunkErrorsArriveAsTypedFrames)
{
    // Errors thrown inside a dispatcher work thunk keep their type on
    // the way back: the client rethrows the server's SerializeError,
    // and the connection keeps serving.
    NetFixture f;
    ClientSession cl(f.params, 7);
    RefServer ref(cl);
    PirTcpClient tcp = f.connect();

    // The registration thunk rejects params of another deployment.
    ClientSession alien(netParams(16, 1), 8);
    EXPECT_THROW(
        (void)tcp.registerKeys(8, alien.paramsBlob(), alien.keyBlob()),
        SerializeError);

    // The registration thunk rejects a key blob whose first evk row
    // (a-side domain tag at byte 30) is not in NTT form.
    std::vector<u8> bad_keys = cl.keyBlob();
    ASSERT_EQ(bad_keys[30], 1u);
    bad_keys[30] = 0;
    EXPECT_THROW((void)tcp.registerKeys(7, cl.paramsBlob(), bad_keys),
                 SerializeError);

    // The query thunk rejects a well-formed QueryRef whose nested blob
    // is a Params blob, not a Query.
    u64 gen = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());
    EXPECT_THROW((void)tcp.query(7, gen, cl.paramsBlob()),
                 SerializeError);

    std::vector<u8> qblob = cl.queryBlob(3);
    EXPECT_EQ(tcp.query(7, gen, qblob), ref.answer(qblob));
}

TEST(NetServer, RegistrationSkipsTheQueryWindow)
{
    // Under a 5 s query window a RegisterKeys round trip still ends in
    // well under a second: registrations run on their own lane, also
    // while a query from another connection waits in that window.
    net::NetServerConfig cfg;
    cfg.scheduler.windowSec = 5.0;
    NetFixture f(cfg);
    ClientSession a(f.params, 31), b(f.params, 32);
    PirTcpClient ca = f.connect(), cb = f.connect();
    using Clock = std::chrono::steady_clock;
    auto seconds_since = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };

    auto t0 = Clock::now();
    u64 ga = ca.registerKeys(1, a.paramsBlob(), a.keyBlob());
    EXPECT_LT(seconds_since(t0), 1.0);

    // Park a query in the window, and wait until the server holds it.
    obs::Gauge &depth =
        obs::Registry::global().gauge(obs::names::kDispatchQueueDepth);
    const i64 idle = depth.value();
    const std::vector<u8> qblob = a.queryBlob(0);
    PirQueryRef ref;
    ref.clientId = 1;
    ref.generation = ga;
    ref.queryBlob = qblob;
    ca.sendFrame(serializeQueryRef(ref));
    auto wait_start = Clock::now();
    while (depth.value() == idle && seconds_since(wait_start) < 2.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(depth.value(), idle + 1) << "query never reached the window";

    t0 = Clock::now();
    u64 gb = cb.registerKeys(2, b.paramsBlob(), b.keyBlob());
    EXPECT_LT(seconds_since(t0), 1.0);
    EXPECT_NE(ga, gb);
    EXPECT_EQ(depth.value(), idle + 1); // The query still waits.
}

TEST(NetServer, TwoClientsInterleaved)
{
    NetFixture f;
    ClientSession a(f.params, 21), b(f.params, 22);
    RefServer refA(a), refB(b);
    PirTcpClient ca = f.connect(), cb = f.connect();

    u64 ga = ca.registerKeys(1, a.paramsBlob(), a.keyBlob());
    u64 gb = cb.registerKeys(2, b.paramsBlob(), b.keyBlob());
    ASSERT_NE(ga, gb); // Generations are global, never shared.

    for (u64 entry = 0; entry < 6; ++entry) {
        std::vector<u8> qa = a.queryBlob(entry);
        std::vector<u8> qb = b.queryBlob(entry + 1);
        EXPECT_EQ(ca.query(1, ga, qa), refA.answer(qa));
        EXPECT_EQ(cb.query(2, gb, qb), refB.answer(qb));
    }
}

TEST(NetServer, UnknownClientAndStaleGeneration)
{
    NetFixture f;
    ClientSession cl(f.params, 7);
    PirTcpClient tcp = f.connect();

    std::vector<u8> qblob = cl.queryBlob(0);
    EXPECT_THROW((void)tcp.query(99, 1, qblob), UnknownClientError);

    u64 g1 = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());
    u64 g2 = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());
    ASSERT_GT(g2, g1);
    EXPECT_THROW((void)tcp.query(7, g1, qblob),
                 StaleGenerationError);
    // The connection survived all three typed errors.
    EXPECT_EQ(tcp.query(7, g2, qblob).empty(), false);
}

TEST(NetServer, UnacceptedKindKeepsConnectionAlive)
{
    NetFixture f;
    ClientSession cl(f.params, 7);
    RefServer ref(cl);
    PirTcpClient tcp = f.connect();
    u64 gen = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());

    // A well-formed Params blob is a valid wire object the session
    // boundary refuses: typed error, connection stays up.
    tcp.sendFrame(serializeParams(f.params));
    std::vector<u8> resp = tcp.recvFrame();
    ASSERT_EQ(peekWireKind(resp), WireKind::ErrorResponse);
    PirErrorResponse err = deserializeErrorResponse(resp);
    EXPECT_EQ(err.code, NetErrorCode::BadRequest);

    std::vector<u8> qblob = cl.queryBlob(2);
    EXPECT_EQ(tcp.query(7, gen, qblob), ref.answer(qblob));
}

TEST(NetServer, GarbageMagicGetsTypedErrorThenDisconnect)
{
    NetFixture f;
    PirTcpClient tcp = f.connect(5.0);

    std::vector<u8> garbage = {'n', 'o', 'p', 'e', 1, 2, 3, 4};
    tcp.sendFrame(garbage);
    std::vector<u8> resp = tcp.recvFrame();
    ASSERT_EQ(peekWireKind(resp), WireKind::ErrorResponse);
    EXPECT_EQ(deserializeErrorResponse(resp).code,
              NetErrorCode::BadFrame);
    // Hostile peer: explained, then hung up on.
    EXPECT_THROW((void)tcp.recvFrame(), Error);
    EXPECT_TRUE(tcp.closed());
}

TEST(NetServer, OversizedFrameGetsTypedErrorThenDisconnect)
{
    net::NetServerConfig cfg = NetFixture::latencyConfig();
    cfg.maxFrameBytes = 4096;
    NetFixture f(cfg);
    PirTcpClient tcp = f.connect(5.0);

    // A 4-byte header declaring 16 MiB; no payload ever follows. The
    // server must reject on the header alone.
    const u8 header[4] = {0, 0, 0, 0x01};
    tcp.sendRaw(header);
    std::vector<u8> resp = tcp.recvFrame();
    ASSERT_EQ(peekWireKind(resp), WireKind::ErrorResponse);
    EXPECT_EQ(deserializeErrorResponse(resp).code,
              NetErrorCode::BadFrame);
    EXPECT_THROW((void)tcp.recvFrame(), Error);
}

TEST(NetServer, SlowlorisHalfFrameIsDisconnected)
{
    net::NetServerConfig cfg = NetFixture::latencyConfig();
    cfg.frameReadDeadlineSec = 0.2;
    NetFixture f(cfg);
    PirTcpClient tcp = f.connect(5.0);

    // Start a frame (header promising 100 bytes) and go silent: the
    // server must not hold the half-frame open past the deadline.
    const u8 header[4] = {100, 0, 0, 0};
    tcp.sendRaw(header);
    EXPECT_THROW((void)tcp.recvFrame(), Error);
    EXPECT_TRUE(tcp.closed());
    EXPECT_GE(f.server->stats().deadlineCloses, 1u);
}

TEST(NetServer, HeaderOnlyFramesStayNonResident)
{
    // Eight connections each send only a header declaring a
    // maxFrameBytes (64 MiB) frame. Each codec reserves that payload
    // buffer, but as address space: the process's RSS must grow by
    // less than one such frame (a zero-filling codec makes 512 MiB
    // resident), a ninth connection must still be served, and the
    // slowloris deadline must close all eight.
    net::NetServerConfig cfg = NetFixture::latencyConfig();
    cfg.frameReadDeadlineSec = 0.2;
    NetFixture f(cfg);
    ClientSession cl(f.params, 7);
    RefServer ref(cl);
    const std::vector<u8> qblob = cl.queryBlob(3);
    const std::vector<u8> want = ref.answer(qblob);

    const u64 max = cfg.maxFrameBytes;
    ASSERT_EQ(max, net::kDefaultMaxFrameBytes);
    const std::array<u8, net::kFrameHeaderBytes> header =
        net::frameHeader(max);
    constexpr u64 kConnections = 8;
    CounterDelta bytes_in(obs::names::kNetBytesIn);
    CounterDelta deadline_closes(obs::names::kNetDeadlineCloses);
    std::deque<PirTcpClient> idle;
    const i64 rss0 = residentBytes();
    for (u64 i = 0; i < kConnections; ++i) {
        idle.emplace_back("127.0.0.1", f.server->port(), 5.0);
        idle.back().sendRaw(header);
    }
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    while (bytes_in() < kConnections * header.size() &&
           Clock::now() - t0 < std::chrono::seconds(5))
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    ASSERT_EQ(bytes_in(), kConnections * header.size());
    const i64 grown = residentBytes() - rss0;
    EXPECT_LT(grown, static_cast<i64>(max))
        << "eight header-only frames made " << grown
        << " bytes resident";

    PirTcpClient tcp = f.connect();
    u64 gen = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());
    EXPECT_EQ(tcp.query(7, gen, qblob), want);

    for (PirTcpClient &c : idle) {
        EXPECT_THROW((void)c.recvFrame(), Error);
        EXPECT_TRUE(c.closed());
    }
    EXPECT_EQ(deadline_closes(), kConnections);
}

TEST(NetServer, ClientSendsExactlyTheSerializedFrames)
{
    // What registerKeys and query put on the socket, read raw off a
    // plain accepting socket, is encodeFrame(serialize*(...)) byte for
    // byte. The blobs are synthetic: only bytes are compared.
    //
    // The slow run shrinks the receive buffer and reads nothing for
    // 1.5 send timeouts. The 8 MiB key blob outgrows the socket
    // buffers, so the client's first sendmsg() blocks until its
    // timeout and returns the bytes it sent so far; the client must
    // resume there, inside an iovec. Had the whole frame gone out in
    // one call, the client would wait for the ack past its timeout
    // and the run would fail with DeadlineExceeded.
    const std::vector<u8> params = serializeParams(netParams());
    std::vector<u8> keys(8u << 20);
    for (size_t i = 0; i < keys.size(); ++i)
        keys[i] = static_cast<u8>(i * 131 + 7);
    std::vector<u8> query(300 * 1024);
    for (size_t i = 0; i < query.size(); ++i)
        query[i] = static_cast<u8>(i * 17 + 3);
    const std::vector<u8> want_reg = net::encodeFrame(
        serializeRegisterKeys(PirRegisterKeys{5, params, keys}));
    const std::vector<u8> want_query =
        net::encodeFrame(serializeQueryRef(PirQueryRef{5, 9, query}));
    const std::vector<u8> ack = serializeHello(PirHello{5, 9});

    struct Run
    {
        const char *name;
        int rcvbuf;
        double timeoutSec;
        std::chrono::milliseconds stall;
    };
    const Run runs[] = {
        {"fast", 0, 10.0, std::chrono::milliseconds(0)},
        {"slow", 8192, 0.25, std::chrono::milliseconds(375)},
    };
    for (const Run &run : runs) {
        SCOPED_TRACE(run.name);
        RawPeer peer(run.rcvbuf);
        std::vector<u8> got_reg, got_query;
        std::thread reader([&] {
            if (!peer.accept())
                return;
            std::this_thread::sleep_for(run.stall);
            const std::chrono::microseconds no_pause(0);
            got_reg = peer.read(want_reg.size(), 16 * 1024, no_pause);
            peer.write(net::encodeFrame(ack));
            got_query = peer.read(want_query.size(), 16 * 1024, no_pause);
            peer.write(net::encodeFrame(ack));
        });
        try {
            PirTcpClient tcp("127.0.0.1", peer.port(), run.timeoutSec);
            EXPECT_EQ(tcp.registerKeys(5, params, keys), 9u);
            EXPECT_EQ(tcp.query(5, 9, query), ack);
        } catch (const std::exception &e) {
            ADD_FAILURE() << e.what();
        }
        reader.join();
        EXPECT_EQ(got_reg.size(), want_reg.size());
        EXPECT_TRUE(got_reg == want_reg);
        EXPECT_EQ(got_query.size(), want_query.size());
        EXPECT_TRUE(got_query == want_query);
    }
}

TEST(NetServer, ConnectionCapShedsWithOverloaded)
{
    net::NetServerConfig cfg = NetFixture::latencyConfig();
    cfg.maxConnections = 1;
    NetFixture f(cfg);

    PirTcpClient first = f.connect();
    EXPECT_EQ(first.hello(1).generation, 0u); // Connection is live.

    PirTcpClient second = f.connect(5.0);
    EXPECT_THROW((void)second.hello(2), Overloaded);
    EXPECT_GE(f.server->stats().rejected, 1u);
}

TEST(NetServer, PipelinedQueriesComeBackInOrder)
{
    // In-flight cap of 2 with 8 pipelined queries: backpressure must
    // pause reads rather than drop or reorder anything.
    net::NetServerConfig cfg = NetFixture::latencyConfig();
    cfg.maxInFlightPerConnection = 2;
    NetFixture f(cfg);
    ClientSession cl(f.params, 7);
    RefServer ref(cl);
    PirTcpClient tcp = f.connect();
    u64 gen = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());

    std::vector<std::vector<u8>> queries;
    for (u64 entry = 0; entry < 8; ++entry)
        queries.push_back(cl.queryBlob(entry));
    for (u64 entry = 0; entry < 8; ++entry) {
        PirQueryRef r;
        r.clientId = 7;
        r.generation = gen;
        r.queryBlob = queries[entry];
        tcp.sendFrame(serializeQueryRef(r));
    }
    for (u64 entry = 0; entry < 8; ++entry) {
        std::vector<u8> resp = tcp.recvFrame();
        EXPECT_EQ(resp, ref.answer(queries[entry]))
            << "pipelined response " << entry
            << " out of order or corrupted";
    }
}

TEST(NetServer, DrainAnswersInFlightThenCloses)
{
    NetFixture f;
    ClientSession cl(f.params, 7);
    RefServer ref(cl);
    PirTcpClient tcp = f.connect(5.0);
    u64 gen = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());

    // One query in flight when drain starts: it must be answered —
    // byte-identically — and flushed before the connection closes.
    std::vector<u8> qblob = cl.queryBlob(5);
    PirQueryRef r;
    r.clientId = 7;
    r.generation = gen;
    r.queryBlob = qblob;
    CounterDelta submitted(obs::names::kDispatchSubmitted);
    tcp.sendFrame(serializeQueryRef(r));
    // sendFrame() returns once the bytes hit the kernel buffer; wait
    // until the server's dispatcher has actually ADMITTED the query,
    // else drain() legitimately rejects it with ShuttingDown and the
    // test races its own setup.
    while (submitted() < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    f.server->drain();

    EXPECT_EQ(tcp.recvFrame(), ref.answer(qblob));
    EXPECT_THROW((void)tcp.recvFrame(), Error);
    EXPECT_TRUE(tcp.closed());

    // The listener still answers, but only to say it is draining.
    PirTcpClient late = f.connect(5.0);
    EXPECT_THROW((void)late.hello(7), ShutdownError);

    // The server object outlives its serving surface.
    EXPECT_EQ(f.server->registry().stats().registered, 1u);
    f.server->stop();
    f.server->stop(); // Idempotent.
}

// ---------------------------------------------------------------------
// Failpoints: deterministic network-fault drills. Recipes that leave
// the connection alive must keep responses byte-identical.

TEST(NetFailpoints, ShortWritesStayByteIdentical)
{
    NetFixture f;
    ClientSession cl(f.params, 7);
    RefServer ref(cl);
    PirTcpClient tcp = f.connect();
    u64 gen = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());

    // Every second send() is truncated to 64 bytes: the write queue
    // must carry the remainder without corrupting or reordering.
    FailpointGuard guard("net.write.short=every:2,arg=64");
    for (u64 entry = 0; entry < 4; ++entry) {
        std::vector<u8> qblob = cl.queryBlob(entry);
        EXPECT_EQ(tcp.query(7, gen, qblob), ref.answer(qblob));
    }
}

TEST(NetFailpoints, ReadStallsStayByteIdentical)
{
    NetFixture f;
    ClientSession cl(f.params, 7);
    RefServer ref(cl);
    PirTcpClient tcp = f.connect();
    u64 gen = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());

    // Every third readable event stalls 5 ms before the recv: slower,
    // never different.
    FailpointGuard guard("net.read.stall=every:3,arg=5");
    for (u64 entry = 0; entry < 4; ++entry) {
        std::vector<u8> qblob = cl.queryBlob(entry);
        EXPECT_EQ(tcp.query(7, gen, qblob), ref.answer(qblob));
    }
}

TEST(NetFailpoints, ConcurrentConnectionsStayByteIdentical)
{
    // Eight connections on eight threads query one registered client at
    // once, so the event loop interleaves their frames and the
    // dispatcher serves them from one queue. Run clean, then under the
    // connection-preserving recipe (short writes and read stalls
    // together): every response must equal the in-process answer.
    NetFixture f;
    ClientSession cl(f.params, 7);
    RefServer ref(cl);
    const u64 gen = f.connect().registerKeys(7, cl.paramsBlob(),
                                             cl.keyBlob());

    const u64 entries = f.params.numEntries();
    std::vector<std::vector<u8>> queries, want;
    for (u64 entry = 0; entry < entries; ++entry) {
        queries.push_back(cl.queryBlob(entry));
        want.push_back(ref.answer(queries.back()));
    }

    constexpr u64 kConnections = 8;
    constexpr u64 kQueriesPerConnection = 4;
    auto drive = [&] {
        std::atomic<int> bad{0};
        std::vector<std::thread> threads;
        for (u64 t = 0; t < kConnections; ++t) {
            threads.emplace_back([&, t] {
                try {
                    PirTcpClient tcp = f.connect();
                    for (u64 i = 0; i < kQueriesPerConnection; ++i) {
                        u64 entry = (t * kQueriesPerConnection + i) % entries;
                        if (tcp.query(7, gen, queries[entry]) !=
                            want[entry])
                            ++bad;
                    }
                } catch (const std::exception &e) {
                    ADD_FAILURE() << "connection " << t << ": " << e.what();
                    ++bad;
                }
            });
        }
        for (std::thread &th : threads)
            th.join();
        return bad.load();
    };

    EXPECT_EQ(drive(), 0) << "clean run";
    FailpointGuard guard("net.write.short=every:3,arg=64;"
                         "net.read.stall=every:7,arg=2");
    EXPECT_EQ(drive(), 0) << "under short writes and read stalls";
    EXPECT_GT(fail::point("net.write.short").fires(), 0u);
    EXPECT_GT(fail::point("net.read.stall").fires(), 0u);
}

TEST(NetFailpoints, ConnResetDropsConnectionButNotRegistry)
{
    NetFixture f;
    ClientSession cl(f.params, 7);
    RefServer ref(cl);

    u64 gen = 0;
    {
        PirTcpClient tcp = f.connect(5.0);
        gen = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());

        // The next received frame kills the connection mid-protocol.
        FailpointGuard guard("net.conn.reset=nth:1");
        const std::vector<u8> qblob = cl.queryBlob(0);
        PirQueryRef r;
        r.clientId = 7;
        r.generation = gen;
        r.queryBlob = qblob;
        tcp.sendFrame(serializeQueryRef(r));
        EXPECT_THROW((void)tcp.recvFrame(), Error);
        EXPECT_TRUE(tcp.closed());
        EXPECT_GE(f.server->stats().resets, 1u);
    }

    // Connection-level faults are connection-scoped: a reconnect
    // serves the same registration, same generation, same bytes.
    PirTcpClient again = f.connect();
    std::vector<u8> qblob = cl.queryBlob(1);
    EXPECT_EQ(again.query(7, gen, qblob), ref.answer(qblob));
}

TEST(NetFailpoints, FrameCorruptIsDetectableByByteComparison)
{
    NetFixture f;
    ClientSession cl(f.params, 7);
    RefServer ref(cl);
    PirTcpClient tcp = f.connect();
    u64 gen = tcp.registerKeys(7, cl.paramsBlob(), cl.keyBlob());

    // Corrupt exactly the first response serialized after arming: the
    // drill flips the last payload byte (arg=0 => offset 0 from the
    // end), so the expected blob with that byte flipped back must
    // equal what arrived — proving the corruption is the ONLY delta.
    // The socket answer is encoded first; ref.answer runs after the
    // one fire, so it is clean.
    FailpointGuard guard("serialize.response.corrupt=nth:1,arg=0");
    std::vector<u8> qblob = cl.queryBlob(4);
    PirQueryRef r;
    r.clientId = 7;
    r.generation = gen;
    r.queryBlob = qblob;
    tcp.sendFrame(serializeQueryRef(r));
    std::vector<u8> got = tcp.recvFrame();

    std::vector<u8> expected = ref.answer(qblob);
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_NE(got, expected);
    std::vector<u8> repaired = got;
    repaired.back() ^= 0xFF;
    EXPECT_EQ(repaired, expected);

    // Subsequent responses are clean again (nth:1 fired once).
    EXPECT_EQ(tcp.query(7, gen, qblob), expected);
}
