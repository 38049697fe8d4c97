/**
 * @file
 * Transport framing for the TCP front-end: u32 length prefix + payload.
 *
 * A TCP stream delivers bytes, not messages; FrameCodec turns the
 * stream back into the top-level wire blobs (pir/wire.hh) the rest of
 * the stack speaks. The codec is deliberately socket-free — feed() it
 * whatever recv() produced, pull complete payloads with next() — so
 * every parsing edge (split length prefix, frame spanning many reads,
 * several frames in one read) is unit-testable without a socket.
 *
 * Each frame's payload lands in one buffer, reserved at its validated
 * header and filled as bytes arrive; next() hands that buffer over by
 * move. The 4 header bytes never enter it, and a finished frame leaves
 * no capacity behind in the codec.
 *
 * Defensive posture: the declared length is validated against a hard
 * maximum BEFORE any payload byte is buffered. A validated header
 * reserves at most maxFrameBytes of address space; it becomes resident
 * only as bytes arrive, and the server's slowloris deadline frees it.
 * A zero-length frame (which could spin a read loop forever) is
 * rejected outright. After a FrameError the codec is poisoned and must
 * be discarded — the stream has no recoverable sync point once framing
 * is wrong.
 */

#ifndef IVE_NET_FRAME_HH
#define IVE_NET_FRAME_HH

#include <array>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hh"
#include "common/types.hh"

namespace ive::net {

/** Malformed transport framing (oversized/zero-length declared size,
 *  or use of a poisoned codec). Distinct from SerializeError: framing
 *  failures kill the connection, payload failures get a typed
 *  ErrorResponse on a still-healthy stream. */
class FrameError : public Error
{
    using Error::Error;
};

/** Transport frame header: little-endian u32 payload length. */
inline constexpr size_t kFrameHeaderBytes = 4;

/** Default hard cap on one frame's payload (64 MiB holds the largest
 *  legitimate blob — a paper-scale key upload — with headroom). */
inline constexpr u64 kDefaultMaxFrameBytes = u64{64} << 20;

/** The length prefix of a payload_bytes-long frame. Throws
 *  std::invalid_argument on 0 or > u32-max (those cannot be framed). */
std::array<u8, kFrameHeaderBytes> frameHeader(u64 payload_bytes);

/** Appends length prefix + payload to out (the encode direction). */
void appendFrame(std::vector<u8> &out, std::span<const u8> payload);

/** One frame as a fresh buffer. Throws std::invalid_argument on an
 *  empty or > u32-max payload (those cannot be framed). */
std::vector<u8> encodeFrame(std::span<const u8> payload);

class FrameCodec
{
  public:
    explicit FrameCodec(u64 max_frame_bytes = kDefaultMaxFrameBytes);

    /**
     * Consumes raw stream bytes (throws FrameError if poisoned). Bytes
     * past a frame's end start the next frame; bytes past a rejected
     * header are dropped.
     */
    void feed(std::span<const u8> bytes);

    /**
     * Returns the next complete payload, or nullopt if more bytes are
     * needed. Throws FrameError on a zero-length or oversized declared
     * length — before the payload is buffered — and poisons the codec.
     */
    std::optional<std::vector<u8>> next();

    /** Bytes buffered but not yet returned by next(), headers
     *  included. */
    size_t
    buffered() const
    {
        return doneBytes_ + headerLen_ + payload_.size();
    }

    /**
     * True while a frame has started arriving (length prefix or
     * partial payload) but is not yet complete — the slowloris
     * deadline in the server arms while this holds and no complete
     * frame is ready.
     */
    bool midFrame() const { return buffered() > 0; }

    /**
     * True when next() would return a payload or throw right away
     * (complete frame buffered, or an invalid length that next() will
     * reject). False only while more stream bytes are genuinely
     * needed.
     */
    bool hasCompleteFrame() const;

    u64 maxFrameBytes() const { return max_; }

  private:
    /** The current frame's declared length (header complete). */
    u32 declaredLength() const;

    u64 max_;
    std::deque<std::vector<u8>> done_; ///< Complete payloads, in order.
    size_t doneBytes_ = 0; ///< Their bytes, headers included.
    std::array<u8, kFrameHeaderBytes> header_{}; ///< Current frame's.
    size_t headerLen_ = 0;     ///< Header bytes received so far.
    std::vector<u8> payload_;  ///< Current frame's payload so far.
    bool badHeader_ = false;   ///< A rejected header waits for next().
    bool poisoned_ = false;
};

} // namespace ive::net

#endif // IVE_NET_FRAME_HH
