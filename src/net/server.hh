/**
 * @file
 * Epoll TCP front-end: framed wire blobs over sockets, defensively.
 *
 * One event-loop thread owns every connection (no per-connection
 * threads, no locks on the hot connection state); heavy work runs on
 * two dispatchers (shard/dispatcher.hh): query evaluation on the
 * waiting-window query lane via per-query work thunks bound to the
 * client's registered engine, key registration on its own lane with
 * no window, so a registration neither waits for a query window nor
 * holds up the queries queued behind it. Results come back through a
 * completion outbox + eventfd wakeup. Responses are delivered in
 * request order per connection (a sequence number per accepted frame;
 * out-of-order completions are held until their predecessors flush).
 *
 * Query flow: socket -> FrameCodec -> SessionRegistry lookup ->
 * ShardDispatcher thunk -> answerQuery(engine, blob) -> ordered
 * write-back. Each request byte is copied once in user space, from
 * the recv chunk into its frame's payload buffer; that buffer then
 * moves to the dispatcher, and the decoders read views into it.
 * answerQuery (pir/session.hh) is the one answer path
 * ServerSession::answer() runs too, so a socket client and an
 * in-process caller see identical bytes, and a socket query records
 * the same trace, stage spans and session byte counters.
 *
 * Robustness posture (README "Network serving"):
 *
 *   admission      over maxConnections, a fresh accept gets a
 *                  best-effort Overloaded error frame and is closed;
 *                  dispatcher admission (maxQueue/deadline) surfaces
 *                  per-query as typed error frames.
 *   backpressure   reads stop while a connection has
 *                  maxInFlightPerConnection queries outstanding or
 *                  its write queue is over writeHighWaterBytes — a
 *                  slow reader throttles itself, never the server.
 *   slowloris      a frame that starts arriving must complete within
 *                  frameReadDeadlineSec; a write queue that makes no
 *                  progress for writeStallDeadlineSec closes the
 *                  connection. Both are clean disconnects, counted in
 *                  ive_net_deadline_closes_total.
 *   hostile input  framing violations (oversized/zero length) and
 *                  malformed payloads produce one typed ErrorResponse
 *                  and a connection close — never a crash. A validated
 *                  header reserves at most maxFrameBytes of address
 *                  space; it becomes resident only as bytes arrive,
 *                  and the slowloris deadline frees it (net/frame.hh).
 *   lifecycle      drain() stops accepting, rejects new work with
 *                  ShuttingDown, finishes in-flight queries, flushes
 *                  write queues under drainDeadlineSec, then closes.
 *
 * Failpoints (deterministic network-fault replay, README recipes):
 *   net.read.stall    skip reads for arg ms (slowloris/deadline drill)
 *   net.write.short   cap one send() to arg bytes (partial-write path)
 *   net.conn.reset    close the connection upon a received frame
 * (Response corruption is pir/wire's serialize.response.corrupt, which
 * every socket query's response passes through.)
 */

#ifndef IVE_NET_SERVER_HH
#define IVE_NET_SERVER_HH

#include <atomic>
#include <deque>
#include <map>
#include <thread>
#include <unordered_map>

#include "net/frame.hh"
#include "net/registry.hh"
#include "pir/wire.hh"
#include "shard/dispatcher.hh"

namespace ive::net {

struct NetServerConfig
{
    std::string bindAddress = "127.0.0.1";
    u16 port = 0; ///< 0 = ephemeral; PirTcpServer::port() reports it.
    /** Connection-count admission: accepts beyond this are rejected
     *  with an Overloaded error frame. */
    int maxConnections = 64;
    /** Per-connection in-flight query cap; reads pause at the cap. */
    int maxInFlightPerConnection = 4;
    u64 maxFrameBytes = kDefaultMaxFrameBytes;
    /** Write-queue high-water mark: reads pause while a connection
     *  has more than this many unsent bytes. */
    u64 writeHighWaterBytes = u64{8} << 20;
    /** A started frame must complete within this (slowloris). */
    double frameReadDeadlineSec = 10.0;
    /** A non-empty write queue must make progress within this. */
    double writeStallDeadlineSec = 10.0;
    /** drain() force-closes connections still flushing after this. */
    double drainDeadlineSec = 5.0;
    RegistryConfig registry;
    /** Waiting-window/admission knobs for the query dispatcher. The
     *  SchedulerConfig default window (32 ms) favors batching; set
     *  windowSec = 0 for latency-first serving. The window applies to
     *  queries only: registrations run on their own lane with no
     *  window, under the same maxQueue and queryDeadlineSec. */
    SchedulerConfig scheduler;
};

/** Cumulative traffic/robustness tallies (atomics, loop-owned). */
struct NetServerStats
{
    u64 accepted = 0;
    u64 rejected = 0; ///< Accepts shed by connection admission.
    u64 activeConnections = 0;
    u64 framesIn = 0;
    u64 framesOut = 0;
    u64 bytesIn = 0;
    u64 bytesOut = 0;
    u64 errorFrames = 0;    ///< Typed ErrorResponse frames sent.
    u64 deadlineCloses = 0; ///< Slowloris/write-stall closes.
    u64 resets = 0;         ///< net.conn.reset failpoint closes.
};

class PirTcpServer
{
  public:
    /**
     * Binds, listens, and starts the event loop. ctx/params/db are
     * the shared deployment the registry builds per-client engines
     * over; all three must outlive the server. Throws ive::Error if
     * the address cannot be bound.
     */
    PirTcpServer(const HeContext &ctx, const PirParams &params,
                 const Database *db, NetServerConfig cfg = {});

    /** stop()s if still running. */
    ~PirTcpServer();

    PirTcpServer(const PirTcpServer &) = delete;
    PirTcpServer &operator=(const PirTcpServer &) = delete;

    /** Actual listening port (resolves an ephemeral bind). */
    u16 port() const { return port_; }

    /**
     * Graceful shutdown of the serving surface: stops accepting,
     * rejects new work with ShuttingDown, lets in-flight queries
     * finish and write queues flush under drainDeadlineSec, then
     * closes every connection. The server object stays alive (stats
     * and registry remain readable); call stop() to tear down.
     */
    void drain();

    /** Hard stop: shuts both dispatchers down, joins the loop, closes
     *  every fd. Idempotent; the destructor calls it. */
    void stop();

    SessionRegistry &registry() { return registry_; }
    NetServerStats stats() const;

  private:
    struct Connection
    {
        int fd = -1;
        u64 id = 0;
        FrameCodec codec;
        std::deque<std::vector<u8>> writeq;
        size_t writeOff = 0;  ///< Sent prefix of writeq.front().
        u64 writeqBytes = 0;  ///< Total unsent bytes across writeq.
        int inFlight = 0;     ///< Requests handed to the dispatcher.
        u64 nextSeq = 0;      ///< Next request sequence to assign.
        u64 nextSendSeq = 0;  ///< Next response sequence to flush.
        std::map<u64, std::vector<u8>> ready; ///< Out-of-order done.
        bool closeAfterFlush = false;
        u32 events = 0;       ///< Current epoll interest mask.
        u64 frameStartNs = 0; ///< != 0 while a frame is partial.
        u64 lastWriteProgressNs = 0; ///< != 0 while writeq non-empty.
        u64 stalledUntilNs = 0;      ///< net.read.stall backoff.

        explicit Connection(u64 max_frame) : codec(max_frame) {}
    };

    /** One completed request on its way back to the loop thread. */
    struct Done
    {
        u64 connId = 0;
        u64 seq = 0;
        std::vector<u8> payload; ///< Serialized response/error blob.
        bool isError = false;
    };

    void runLoop();
    void doAccept();
    /** All handlers return false when they closed the connection. */
    bool handleReadable(Connection &c);
    bool handleWritable(Connection &c);
    /** Parses and routes buffered frames while backpressure allows. */
    bool processFrames(Connection &c, u64 now_ns);
    /** Routes one complete frame payload. */
    bool handleFrame(Connection &c, std::vector<u8> payload);
    void enqueueResponse(Connection &c, u64 seq,
                         std::vector<u8> payload, bool is_error);
    void enqueueError(Connection &c, u64 seq, NetErrorCode code,
                      const std::string &message);
    void updateInterest(Connection &c);
    void closeConn(u64 id);
    void applyCompletions(u64 now_ns);
    void enforceDeadlines(u64 now_ns);
    int epollTimeoutMs(u64 now_ns) const;
    void maybeFinishDrain();
    /**
     * The dispatcher callback for request seq on connection conn_id:
     * maps an error to its ErrorResponse, pushes the result to the
     * outbox and wakes the loop. Runs on the dispatch thread.
     */
    ShardDispatcher::CompletionFn completionFor(u64 conn_id, u64 seq);
    void kick();

    NetServerConfig cfg_;
    SessionRegistry registry_;
    ShardDispatcher dispatcher_;     ///< Queries: the waiting window.
    ShardDispatcher registrations_;  ///< RegisterKeys: no window.

    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    u16 port_ = 0;

    // Loop-owned: only the event-loop thread touches these.
    std::unordered_map<u64, std::unique_ptr<Connection>> conns_;
    u64 nextConnId_ = 2; ///< 0 = listener, 1 = wake eventfd.

    // Cross-thread completion outbox (dispatcher -> loop).
    mutable Mutex outMu_;
    std::vector<Done> outbox_ IVE_GUARDED_BY(outMu_);

    // Drain handshake (external caller <-> loop).
    mutable Mutex drainMu_;
    CondVar drainCv_;
    bool drainIdle_ IVE_GUARDED_BY(drainMu_) = false;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> forceDrain_{false};

    // Stats mirrors (relaxed atomics; stats() snapshots them).
    std::atomic<u64> accepted_{0}, rejected_{0}, active_{0};
    std::atomic<u64> framesIn_{0}, framesOut_{0};
    std::atomic<u64> bytesIn_{0}, bytesOut_{0};
    std::atomic<u64> errorFrames_{0}, deadlineCloses_{0}, resets_{0};

    std::once_flag stopOnce_;
    std::thread loop_;
};

} // namespace ive::net

#endif // IVE_NET_SERVER_HH
