#include "net/server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "pir/session.hh"

namespace ive::net {

namespace {

/** Epoll user-data keys for the two non-connection fds. */
constexpr u64 kListenerKey = 0;
constexpr u64 kWakeKey = 1;

/** Read chunk size per recv() call. */
constexpr size_t kReadChunk = 64 * 1024;

/** Default net.read.stall backoff when the failpoint carries no arg. */
constexpr u64 kDefaultStallMs = 10;

struct NetMetrics
{
    obs::Gauge &connections;
    obs::Counter &accepted;
    obs::Counter &rejected;
    obs::Counter &framesIn;
    obs::Counter &framesOut;
    obs::Counter &bytesIn;
    obs::Counter &bytesOut;
    obs::Counter &errorFrames;
    obs::Counter &deadlineCloses;
};

NetMetrics &
netMetrics()
{
    namespace n = obs::names;
    obs::Registry &r = obs::Registry::global();
    static NetMetrics m{
        r.gauge(n::kNetConnections, "open client connections"),
        r.counter(n::kNetAccepted, "connections accepted"),
        r.counter(n::kNetRejected,
                  "connections shed by admission control"),
        r.counter(n::kNetFramesIn, "frames received"),
        r.counter(n::kNetFramesOut, "frames sent"),
        r.counter(n::kNetBytesIn, "bytes received"),
        r.counter(n::kNetBytesOut, "bytes sent"),
        r.counter(n::kNetErrorFrames, "typed error frames sent"),
        r.counter(n::kNetDeadlineCloses,
                  "connections closed by a deadline"),
    };
    return m;
}

[[noreturn]] void
throwErrno(const char *what)
{
    throw Error(strprintf("%s: %s", what, std::strerror(errno)));
}

/**
 * The completion boundary: whatever a work thunk threw becomes a
 * typed (code, message) pair for the ErrorResponse frame, so socket
 * clients see the same taxonomy in-process callers catch.
 */
std::pair<NetErrorCode, std::string>
classifyError(const std::exception_ptr &err)
{
    try {
        std::rethrow_exception(err);
    } catch (const UnknownClientError &e) {
        return {NetErrorCode::UnknownClient, e.what()};
    } catch (const StaleGenerationError &e) {
        return {NetErrorCode::StaleGeneration, e.what()};
    } catch (const SerializeError &e) {
        return {NetErrorCode::BadRequest, e.what()};
    } catch (const Overloaded &e) {
        return {NetErrorCode::Overloaded, e.what()};
    } catch (const DeadlineExceeded &e) {
        return {NetErrorCode::DeadlineExceeded, e.what()};
    } catch (const ShutdownError &e) {
        return {NetErrorCode::ShuttingDown, e.what()};
    } catch (const ShardUnavailable &e) {
        return {NetErrorCode::Unavailable, e.what()};
    } catch (const std::exception &e) {
        return {NetErrorCode::Internal, e.what()};
        // lint: allow(catch-all) -- completion boundary: anything escaping a work thunk must still become a typed error frame, never kill the dispatch thread
    } catch (...) {
        return {NetErrorCode::Internal, "unknown error"};
    }
}

/**
 * The registration lane's policy: no waiting window (a registration is
 * one client's setup, nothing batches with it), and the query lane's
 * admission bounds.
 */
SchedulerConfig
registrationLane(const SchedulerConfig &queries)
{
    SchedulerConfig lane;
    lane.windowSec = 0.0;
    lane.maxQueue = queries.maxQueue;
    lane.queryDeadlineSec = queries.queryDeadlineSec;
    return lane;
}

void
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throwErrno("fcntl(O_NONBLOCK)");
}

} // namespace

PirTcpServer::PirTcpServer(const HeContext &ctx, const PirParams &params,
                           const Database *db, NetServerConfig cfg)
    : cfg_(std::move(cfg)), registry_(ctx, params, db, cfg_.registry),
      dispatcher_(cfg_.scheduler),
      registrations_(registrationLane(cfg_.scheduler))
{
    ive_assert(cfg_.maxConnections >= 1);
    ive_assert(cfg_.maxInFlightPerConnection >= 1);
    ive_assert(cfg_.maxFrameBytes > 0);
    ive_assert(cfg_.writeHighWaterBytes > 0);
    ive_assert(cfg_.frameReadDeadlineSec > 0.0);
    ive_assert(cfg_.writeStallDeadlineSec > 0.0);
    ive_assert(cfg_.drainDeadlineSec > 0.0);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        throwErrno("socket");
    int one = 1;
    (void)::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (inet_pton(AF_INET, cfg_.bindAddress.c_str(), &addr.sin_addr) !=
        1) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw Error(strprintf("bad bind address \"%s\"",
                              cfg_.bindAddress.c_str()));
    }
    if (bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
             sizeof addr) < 0 ||
        listen(listenFd_, 128) < 0) {
        int saved = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        errno = saved;
        throwErrno("bind/listen");
    }
    setNonBlocking(listenFd_);
    socklen_t alen = sizeof addr;
    if (getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                    &alen) < 0)
        throwErrno("getsockname");
    port_ = ntohs(addr.sin_port);

    epollFd_ = epoll_create1(EPOLL_CLOEXEC);
    wakeFd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epollFd_ < 0 || wakeFd_ < 0)
        throwErrno("epoll_create1/eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerKey;
    if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) < 0)
        throwErrno("epoll_ctl(listener)");
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeKey;
    if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) < 0)
        throwErrno("epoll_ctl(wake)");

    loop_ = std::thread([this] { runLoop(); });
}

PirTcpServer::~PirTcpServer()
{
    stop();
}

void
PirTcpServer::stop()
{
    std::call_once(stopOnce_, [this] {
        draining_.store(true);      // Reject new work immediately.
        dispatcher_.shutdown();     // Flush in-flight; completions post.
        registrations_.shutdown();
        stopping_.store(true);
        kick();
        loop_.join();
        if (epollFd_ >= 0)
            ::close(epollFd_);
        if (wakeFd_ >= 0)
            ::close(wakeFd_);
        epollFd_ = wakeFd_ = -1;
        {
            LockGuard lk(drainMu_);
            drainIdle_ = true; // Unblock any concurrent drain().
        }
        drainCv_.notify_all();
    });
}

void
PirTcpServer::drain()
{
    if (stopping_.load())
        return;
    draining_.store(true);
    kick();
    // Every accepted query and registration dispatches and posts its
    // completion before drain() returns; what remains is flushing write
    // queues to peers.
    dispatcher_.drain();
    registrations_.drain();
    kick();
    using Clock = std::chrono::steady_clock;
    auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               cfg_.drainDeadlineSec));
    bool flushed = false;
    {
        UniqueLock lk(drainMu_);
        flushed = drainCv_.wait_until(lk, deadline, [this] {
            drainMu_.assertHeld();
            return drainIdle_;
        });
    }
    if (!flushed) {
        // Deadline passed with peers still not draining their
        // responses: force-close the stragglers.
        forceDrain_.store(true);
        kick();
        UniqueLock lk(drainMu_);
        drainCv_.wait(lk, [this] {
            drainMu_.assertHeld();
            return drainIdle_;
        });
    }
}

NetServerStats
PirTcpServer::stats() const
{
    NetServerStats s;
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.activeConnections = active_.load(std::memory_order_relaxed);
    s.framesIn = framesIn_.load(std::memory_order_relaxed);
    s.framesOut = framesOut_.load(std::memory_order_relaxed);
    s.bytesIn = bytesIn_.load(std::memory_order_relaxed);
    s.bytesOut = bytesOut_.load(std::memory_order_relaxed);
    s.errorFrames = errorFrames_.load(std::memory_order_relaxed);
    s.deadlineCloses = deadlineCloses_.load(std::memory_order_relaxed);
    s.resets = resets_.load(std::memory_order_relaxed);
    return s;
}

ShardDispatcher::CompletionFn
PirTcpServer::completionFor(u64 conn_id, u64 seq)
{
    return [this, conn_id, seq](std::vector<u8> resp,
                                std::exception_ptr err) {
        const bool is_error = err != nullptr;
        if (is_error) {
            auto [code, msg] = classifyError(err);
            resp = serializeErrorResponse(PirErrorResponse{code, msg});
        }
        {
            LockGuard lk(outMu_);
            outbox_.push_back(
                Done{conn_id, seq, std::move(resp), is_error});
        }
        kick();
    };
}

void
PirTcpServer::kick()
{
    u64 one = 1;
    // Best-effort: EAGAIN means the counter is already non-zero (the
    // loop will wake anyway), EBADF means stop() already closed it.
    (void)!::write(wakeFd_, &one, sizeof one);
}

void
PirTcpServer::runLoop()
{
    std::vector<epoll_event> events(128);
    while (!stopping_.load()) {
        u64 now = obs::nowNs();
        int timeout = epollTimeoutMs(now);
        int n = epoll_wait(epollFd_, events.data(),
                           static_cast<int>(events.size()), timeout);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break; // epoll fd gone; only happens tearing down.
        }
        now = obs::nowNs();
        for (int i = 0; i < n; ++i) {
            u64 key = events[i].data.u64;
            u32 ev = events[i].events;
            if (key == kListenerKey) {
                doAccept();
                continue;
            }
            if (key == kWakeKey) {
                u64 buf = 0;
                (void)!::read(wakeFd_, &buf, sizeof buf);
                continue;
            }
            auto it = conns_.find(key);
            if (it == conns_.end())
                continue; // Closed earlier in this batch.
            Connection &c = *it->second;
            if (ev & (EPOLLERR | EPOLLHUP)) {
                closeConn(key);
                continue;
            }
            if ((ev & EPOLLOUT) && !handleWritable(c))
                continue;
            if (ev & EPOLLIN) {
                auto again = conns_.find(key);
                if (again == conns_.end())
                    continue;
                (void)handleReadable(*again->second);
            }
        }
        now = obs::nowNs();
        applyCompletions(now);
        // Backpressure that lifted above may have left complete
        // frames sitting in a codec with no further EPOLLIN coming;
        // sweep them. Cheap: one flag check per idle connection.
        {
            std::vector<u64> ids;
            ids.reserve(conns_.size());
            for (auto &kv : conns_)
                ids.push_back(kv.first);
            for (u64 id : ids) {
                auto it = conns_.find(id);
                if (it != conns_.end() &&
                    it->second->codec.hasCompleteFrame())
                    (void)processFrames(*it->second, now);
            }
        }
        enforceDeadlines(obs::nowNs());
        maybeFinishDrain();
    }
    // Loop exit: close every connection fd and the listener. The
    // epoll/wake fds are closed by stop() after the join.
    for (auto &kv : conns_)
        ::close(kv.second->fd);
    conns_.clear();
    active_.store(0, std::memory_order_relaxed);
    netMetrics().connections.set(0);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    maybeFinishDrain();
}

void
PirTcpServer::doAccept()
{
    NetMetrics &nm = netMetrics();
    for (;;) {
        int fd = accept4(listenFd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN (or transient accept error): done.
        }
        bool over =
            conns_.size() >= static_cast<size_t>(cfg_.maxConnections);
        if (over || draining_.load()) {
            // Admission: a one-frame best-effort explanation, then
            // close. The socket buffer of a fresh connection always
            // has room for this small frame; if not, the client just
            // sees the close.
            PirErrorResponse err;
            err.code = over ? NetErrorCode::Overloaded
                            : NetErrorCode::ShuttingDown;
            err.message =
                over ? strprintf("server at its %d-connection limit",
                                 cfg_.maxConnections)
                     : "server is draining";
            // Count before the frame becomes visible: a client
            // that just read this Overloaded/ShuttingDown frame must
            // already see the rejection in stats().
            rejected_.fetch_add(1, std::memory_order_relaxed);
            nm.rejected.add(1);
            std::vector<u8> frame =
                encodeFrame(serializeErrorResponse(err));
            (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }
        int one = 1;
        (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                           sizeof one);
        u64 id = nextConnId_++;
        auto conn = std::make_unique<Connection>(cfg_.maxFrameBytes);
        conn->fd = fd;
        conn->id = id;
        conn->events = EPOLLIN;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = id;
        if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
            ::close(fd);
            continue;
        }
        conns_.emplace(id, std::move(conn));
        accepted_.fetch_add(1, std::memory_order_relaxed);
        active_.store(conns_.size(), std::memory_order_relaxed);
        nm.accepted.add(1);
        nm.connections.set(static_cast<i64>(conns_.size()));
    }
}

void
PirTcpServer::closeConn(u64 id)
{
    auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    ::close(it->second->fd);
    conns_.erase(it);
    active_.store(conns_.size(), std::memory_order_relaxed);
    netMetrics().connections.set(static_cast<i64>(conns_.size()));
}

bool
PirTcpServer::handleReadable(Connection &c)
{
    static fail::Failpoint &readStall = fail::point("net.read.stall");

    u64 now = obs::nowNs();
    if (c.stalledUntilNs != 0 && now < c.stalledUntilNs)
        return true;
    c.stalledUntilNs = 0;
    if (fail::Hit h = readStall.evaluate()) {
        // Model a stalled reader: leave the bytes in the kernel buffer
        // and come back after the backoff. EPOLLIN is masked until
        // then so a level-triggered epoll does not spin.
        u64 ms = h.arg != 0 ? h.arg : kDefaultStallMs;
        c.stalledUntilNs = now + ms * 1'000'000;
        updateInterest(c);
        return true;
    }

    NetMetrics &nm = netMetrics();
    u8 buf[kReadChunk];
    for (;;) {
        ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n > 0) {
            bytesIn_.fetch_add(static_cast<u64>(n),
                               std::memory_order_relaxed);
            nm.bytesIn.add(static_cast<u64>(n));
            try {
                c.codec.feed(
                    std::span<const u8>(buf, static_cast<size_t>(n)));
            } catch (const FrameError &) {
                // Poisoned codec (framing already broken earlier).
                closeConn(c.id);
                return false;
            }
            if (!processFrames(c, obs::nowNs()))
                return false;
            // Backpressure: leave the rest in the kernel buffer.
            if (c.inFlight >= cfg_.maxInFlightPerConnection ||
                c.writeqBytes >= cfg_.writeHighWaterBytes ||
                c.closeAfterFlush || c.stalledUntilNs != 0)
                break;
            if (n < static_cast<ssize_t>(sizeof buf))
                break; // Short read: kernel buffer drained.
        } else if (n == 0) {
            // Peer closed (or half-closed) the stream. Responses have
            // no reader worth waiting for; drop the connection.
            closeConn(c.id);
            return false;
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
            break;
        } else if (errno == EINTR) {
            continue;
        } else {
            closeConn(c.id);
            return false;
        }
    }
    updateInterest(c);
    return true;
}

bool
PirTcpServer::processFrames(Connection &c, u64 now_ns)
{
    static fail::Failpoint &connReset = fail::point("net.conn.reset");

    NetMetrics &nm = netMetrics();
    while (!c.closeAfterFlush &&
           c.inFlight < cfg_.maxInFlightPerConnection &&
           c.writeqBytes < cfg_.writeHighWaterBytes) {
        std::optional<std::vector<u8>> payload;
        try {
            payload = c.codec.next();
        } catch (const FrameError &e) {
            // Framing violation: explain once, then close. There is
            // no resynchronization point in a byte stream with a bad
            // length prefix.
            u64 seq = c.nextSeq++;
            enqueueError(c, seq, NetErrorCode::BadFrame, e.what());
            c.closeAfterFlush = true;
            break;
        }
        if (!payload.has_value())
            break;
        framesIn_.fetch_add(1, std::memory_order_relaxed);
        nm.framesIn.add(1);
        if (connReset.evaluate()) {
            // Injected mid-stream connection loss.
            resets_.fetch_add(1, std::memory_order_relaxed);
            closeConn(c.id);
            return false;
        }
        if (!handleFrame(c, std::move(*payload)))
            return false;
    }
    // Slowloris deadline: arm while a frame is partially received and
    // we are actually willing to read more of it; a complete frame
    // blocked only by backpressure must not tick the clock.
    if (c.codec.midFrame() && !c.codec.hasCompleteFrame()) {
        if (c.frameStartNs == 0)
            c.frameStartNs = now_ns;
    } else {
        c.frameStartNs = 0;
    }
    updateInterest(c);
    return true;
}

bool
PirTcpServer::handleFrame(Connection &c, std::vector<u8> payload)
{
    u64 seq = c.nextSeq++;
    WireKind kind{};
    try {
        kind = peekWireKind(payload);
    } catch (const SerializeError &e) {
        // Garbage magic / version / kind byte: hostile or confused
        // peer. Explain and hang up.
        enqueueError(c, seq, NetErrorCode::BadFrame, e.what());
        c.closeAfterFlush = true;
        return true;
    }

    switch (kind) {
    case WireKind::Hello: {
        try {
            PirHello h = deserializeHello(payload);
            h.generation = registry_.currentGeneration(h.clientId);
            enqueueResponse(c, seq, serializeHello(h), false);
        } catch (const SerializeError &e) {
            enqueueError(c, seq, NetErrorCode::BadRequest, e.what());
        }
        return true;
    }
    case WireKind::RegisterKeys: {
        if (draining_.load()) {
            enqueueError(c, seq, NetErrorCode::ShuttingDown,
                         "server is draining");
            return true;
        }
        // Heavy: nested-blob parse, key decoding and engine
        // construction run on the registration lane's thread, not here
        // and not behind the query window. All of it is serial (no
        // parallelFor), so it never takes the pool's one batch slot,
        // which would make a concurrent query's parallelFor run inline.
        ++c.inFlight;
        registrations_.submit(
            std::move(payload),
            [this](const std::vector<u8> &blob) -> std::vector<u8> {
                PirRegisterKeys reg = deserializeRegisterKeys(blob);
                u64 gen = registry_.registerClient(
                    reg.clientId, reg.paramsBlob, reg.keyBlob);
                return serializeHello(PirHello{reg.clientId, gen});
            },
            completionFor(c.id, seq));
        return true;
    }
    case WireKind::QueryRef: {
        if (draining_.load()) {
            enqueueError(c, seq, NetErrorCode::ShuttingDown,
                         "server is draining");
            return true;
        }
        PirQueryRef ref;
        try {
            ref = deserializeQueryRef(payload);
        } catch (const SerializeError &e) {
            enqueueError(c, seq, NetErrorCode::BadRequest, e.what());
            return true;
        }
        std::shared_ptr<const PirServer> engine;
        try {
            engine = registry_.lookup(ref.clientId, ref.generation);
        } catch (const UnknownClientError &e) {
            enqueueError(c, seq, NetErrorCode::UnknownClient,
                         e.what());
            return true;
        } catch (const StaleGenerationError &e) {
            enqueueError(c, seq, NetErrorCode::StaleGeneration,
                         e.what());
            return true;
        }
        ++c.inFlight;
        // The same answer path ServerSession::answer() runs, bound to
        // this client's registered engine. The engine shared_ptr pins
        // it across a concurrent LRU eviction.
        dispatcher_.submit(
            std::move(ref.queryBlob),
            [engine](const std::vector<u8> &blob) {
                return answerQuery(*engine, blob);
            },
            completionFor(c.id, seq));
        return true;
    }
    default:
        // Well-formed frame of a kind this boundary does not accept
        // (raw Params/Query/Response blobs, or a client echoing an
        // ErrorResponse). Typed refusal; the connection stays up.
        enqueueError(c, seq, NetErrorCode::BadRequest,
                     strprintf("frame kind %u is not accepted by the "
                               "session front-end",
                               static_cast<unsigned>(kind)));
        return true;
    }
}

void
PirTcpServer::enqueueResponse(Connection &c, u64 seq,
                              std::vector<u8> payload, bool is_error)
{
    static fail::Failpoint &corrupt = fail::point("net.frame.corrupt");

    NetMetrics &nm = netMetrics();
    if (is_error) {
        errorFrames_.fetch_add(1, std::memory_order_relaxed);
        nm.errorFrames.add(1);
    } else if (fail::Hit h = corrupt.evaluate()) {
        // Outgoing corruption drill: flip one byte of the response
        // payload (arg = offset from the end) so client-side
        // validation must catch it.
        payload[payload.size() - 1 - (h.arg % payload.size())] ^= 0xFF;
    }
    c.ready.emplace(seq, std::move(payload));
    // In-order delivery: flush every response whose predecessors have
    // all been flushed; later completions wait in c.ready.
    while (true) {
        auto it = c.ready.find(c.nextSendSeq);
        if (it == c.ready.end())
            break;
        std::vector<u8> frame = encodeFrame(it->second);
        c.writeqBytes += frame.size();
        c.writeq.push_back(std::move(frame));
        c.ready.erase(it);
        ++c.nextSendSeq;
        framesOut_.fetch_add(1, std::memory_order_relaxed);
        nm.framesOut.add(1);
        if (c.lastWriteProgressNs == 0)
            c.lastWriteProgressNs = obs::nowNs();
    }
    updateInterest(c);
}

void
PirTcpServer::enqueueError(Connection &c, u64 seq, NetErrorCode code,
                           const std::string &message)
{
    enqueueResponse(
        c, seq, serializeErrorResponse(PirErrorResponse{code, message}),
        true);
}

bool
PirTcpServer::handleWritable(Connection &c)
{
    static fail::Failpoint &writeShort = fail::point("net.write.short");

    NetMetrics &nm = netMetrics();
    while (!c.writeq.empty()) {
        const std::vector<u8> &front = c.writeq.front();
        size_t want = front.size() - c.writeOff;
        bool shortened = false;
        if (fail::Hit h = writeShort.evaluate()) {
            // Partial-write drill: cap this send() to arg bytes (min
            // 1) and yield back to the loop; EPOLLOUT resumes us.
            want = std::min<size_t>(
                want, static_cast<size_t>(h.arg != 0 ? h.arg : 1));
            shortened = true;
        }
        ssize_t n = ::send(c.fd, front.data() + c.writeOff, want,
                           MSG_NOSIGNAL);
        if (n > 0) {
            c.writeOff += static_cast<size_t>(n);
            c.writeqBytes -= static_cast<u64>(n);
            c.lastWriteProgressNs = obs::nowNs();
            bytesOut_.fetch_add(static_cast<u64>(n),
                                std::memory_order_relaxed);
            nm.bytesOut.add(static_cast<u64>(n));
            if (c.writeOff == front.size()) {
                c.writeq.pop_front();
                c.writeOff = 0;
            }
            if (shortened)
                break;
        } else if (n < 0 &&
                   (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else {
            closeConn(c.id);
            return false;
        }
    }
    if (c.writeq.empty()) {
        c.lastWriteProgressNs = 0;
        if (c.closeAfterFlush) {
            closeConn(c.id);
            return false;
        }
    }
    updateInterest(c);
    return true;
}

void
PirTcpServer::updateInterest(Connection &c)
{
    bool wantRead = !c.closeAfterFlush && c.stalledUntilNs == 0 &&
                    c.inFlight < cfg_.maxInFlightPerConnection &&
                    c.writeqBytes < cfg_.writeHighWaterBytes;
    u32 events = (wantRead ? u32{EPOLLIN} : 0) |
                 (!c.writeq.empty() ? u32{EPOLLOUT} : 0);
    if (events == c.events)
        return;
    // Reads pausing stops the slowloris clock (self-inflicted wait);
    // it re-arms from "now" when reads resume and a frame is partial.
    if (!wantRead)
        c.frameStartNs = 0;
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = c.id;
    if (epoll_ctl(epollFd_, EPOLL_CTL_MOD, c.fd, &ev) == 0)
        c.events = events;
}

void
PirTcpServer::applyCompletions(u64 now_ns)
{
    std::vector<Done> batch;
    {
        LockGuard lk(outMu_);
        batch.swap(outbox_);
    }
    for (Done &d : batch) {
        auto it = conns_.find(d.connId);
        if (it == conns_.end())
            continue; // Connection died while the query ran.
        Connection &c = *it->second;
        --c.inFlight;
        enqueueResponse(c, d.seq, std::move(d.payload), d.isError);
        auto again = conns_.find(d.connId);
        if (again != conns_.end())
            (void)processFrames(*again->second, now_ns);
    }
}

void
PirTcpServer::enforceDeadlines(u64 now_ns)
{
    NetMetrics &nm = netMetrics();
    u64 frame_ns =
        static_cast<u64>(cfg_.frameReadDeadlineSec * 1e9);
    u64 stall_ns =
        static_cast<u64>(cfg_.writeStallDeadlineSec * 1e9);
    std::vector<u64> ids;
    ids.reserve(conns_.size());
    for (auto &kv : conns_)
        ids.push_back(kv.first);
    for (u64 id : ids) {
        auto it = conns_.find(id);
        if (it == conns_.end())
            continue;
        Connection &c = *it->second;
        if (c.stalledUntilNs != 0 && now_ns >= c.stalledUntilNs) {
            c.stalledUntilNs = 0;
            updateInterest(c); // Re-arm EPOLLIN; LT epoll re-fires.
        }
        bool expired = false;
        if (c.frameStartNs != 0 && now_ns > c.frameStartNs + frame_ns)
            expired = true; // Slowloris: frame never completed.
        if (c.lastWriteProgressNs != 0 &&
            now_ns > c.lastWriteProgressNs + stall_ns)
            expired = true; // Peer stopped draining responses.
        if (expired) {
            deadlineCloses_.fetch_add(1, std::memory_order_relaxed);
            nm.deadlineCloses.add(1);
            closeConn(id);
        }
    }
}

int
PirTcpServer::epollTimeoutMs(u64 now_ns) const
{
    u64 frame_ns =
        static_cast<u64>(cfg_.frameReadDeadlineSec * 1e9);
    u64 stall_ns =
        static_cast<u64>(cfg_.writeStallDeadlineSec * 1e9);
    u64 next = ~u64{0};
    for (const auto &kv : conns_) {
        const Connection &c = *kv.second;
        if (c.stalledUntilNs != 0)
            next = std::min(next, c.stalledUntilNs);
        if (c.frameStartNs != 0)
            next = std::min(next, c.frameStartNs + frame_ns);
        if (c.lastWriteProgressNs != 0)
            next = std::min(next, c.lastWriteProgressNs + stall_ns);
    }
    if (draining_.load() && !conns_.empty())
        next = std::min(next, now_ns + 50'000'000); // Poll drain state.
    if (next == ~u64{0})
        return -1;
    if (next <= now_ns)
        return 0;
    u64 ms = (next - now_ns + 999'999) / 1'000'000;
    return static_cast<int>(std::min<u64>(ms, 60'000));
}

void
PirTcpServer::maybeFinishDrain()
{
    if (!draining_.load())
        return;
    bool idle;
    {
        LockGuard lk(outMu_);
        idle = outbox_.empty();
    }
    if (idle) {
        for (const auto &kv : conns_) {
            const Connection &c = *kv.second;
            if (c.inFlight > 0 || !c.writeq.empty() ||
                !c.ready.empty()) {
                idle = false;
                break;
            }
        }
    }
    if (!idle && !forceDrain_.load())
        return;
    std::vector<u64> ids;
    ids.reserve(conns_.size());
    for (auto &kv : conns_)
        ids.push_back(kv.first);
    for (u64 id : ids)
        closeConn(id);
    {
        LockGuard lk(drainMu_);
        drainIdle_ = true;
    }
    drainCv_.notify_all();
}

} // namespace ive::net
