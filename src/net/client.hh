/**
 * @file
 * Blocking TCP client for the PIR session protocol.
 *
 * The test/bench counterpart of PirTcpServer: connects, performs the
 * Hello / RegisterKeys / QueryRef exchanges, and maps ErrorResponse
 * frames back onto the typed error taxonomy (common/error.hh and the
 * registry errors), so a socket client catches exactly what an
 * in-process caller would. Simple blocking sockets with SO_RCVTIMEO /
 * SO_SNDTIMEO — a hung server surfaces as DeadlineExceeded, never a
 * stuck test.
 *
 * registerKeys and query send their frame with one gather write: a
 * small owned prefix (frame length, wire header, ids, nested lengths)
 * and the caller's blobs in place, so no blob byte is copied in user
 * space on the way to the socket.
 *
 * The low-level sendFrame / sendRaw / recvFrame surface exists for
 * hostility tests (oversized frames, garbage magic, half-sent frames)
 * and for pipelining experiments; the high-level calls are strictly
 * one request, one response.
 */

#ifndef IVE_NET_CLIENT_HH
#define IVE_NET_CLIENT_HH

#include <sys/uio.h>

#include <string>

#include "net/frame.hh"
#include "pir/wire.hh"

namespace ive::net {

/** Throws the typed exception an ErrorResponse frame encodes. */
[[noreturn]] void throwErrorResponse(const PirErrorResponse &err);

class PirTcpClient
{
  public:
    /** Connects (throws ive::Error on refusal/timeout). */
    PirTcpClient(const std::string &host, u16 port,
                 double timeout_sec = 10.0,
                 u64 max_frame_bytes = kDefaultMaxFrameBytes);
    ~PirTcpClient();

    PirTcpClient(const PirTcpClient &) = delete;
    PirTcpClient &operator=(const PirTcpClient &) = delete;

    /** Handshake: returns the server's view of client_id's current
     *  generation (0 = not registered). */
    PirHello hello(u64 client_id);

    /** Uploads params+keys; returns the assigned generation. */
    u64 registerKeys(u64 client_id, std::span<const u8> params_blob,
                     std::span<const u8> key_blob);

    /**
     * One query round-trip; returns the Response blob (feed it to
     * deserializeResponse / ClientSession::decodeResponse). Throws
     * the typed error an ErrorResponse frame carries.
     */
    std::vector<u8> query(u64 client_id, u64 generation,
                          std::span<const u8> query_blob);

    // Low-level surface for hostility tests and pipelining.
    void sendFrame(std::span<const u8> payload);
    /** Raw bytes, no framing — for deliberately malformed streams. */
    void sendRaw(std::span<const u8> bytes);
    /**
     * Next frame payload. Throws DeadlineExceeded on receive timeout,
     * ive::Error on connection loss, FrameError on bad framing.
     */
    std::vector<u8> recvFrame();

    /** True once the server has closed the stream. */
    bool closed() const { return closed_; }

  private:
    /** Frames the concatenated pieces; one gather write sends all. */
    void sendPieces(std::span<const std::span<const u8>> payload);
    /** Sends every byte of iov, resuming a partial send at any byte
     *  (across iovec boundaries); a send timeout throws
     *  DeadlineExceeded. */
    void sendIov(std::span<iovec> iov);
    /** sendPieces + recvFrame, mapping ErrorResponse to a throw. */
    std::vector<u8>
    roundTrip(std::span<const std::span<const u8>> payload);

    int fd_ = -1;
    FrameCodec codec_;
    bool closed_ = false;
};

} // namespace ive::net

#endif // IVE_NET_CLIENT_HH
