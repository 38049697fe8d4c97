#include "net/frame.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/logging.hh"

namespace ive::net {

std::array<u8, kFrameHeaderBytes>
frameHeader(u64 payload_bytes)
{
    if (payload_bytes == 0)
        throw std::invalid_argument("frame: empty payload");
    if (payload_bytes > std::numeric_limits<u32>::max())
        throw std::invalid_argument("frame: payload exceeds u32");
    std::array<u8, kFrameHeaderBytes> header{};
    for (size_t i = 0; i < kFrameHeaderBytes; ++i)
        header[i] = static_cast<u8>(payload_bytes >> (8 * i));
    return header;
}

void
appendFrame(std::vector<u8> &out, std::span<const u8> payload)
{
    std::array<u8, kFrameHeaderBytes> header = frameHeader(payload.size());
    out.insert(out.end(), header.begin(), header.end());
    out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<u8>
encodeFrame(std::span<const u8> payload)
{
    std::vector<u8> out;
    out.reserve(kFrameHeaderBytes + payload.size());
    appendFrame(out, payload);
    return out;
}

FrameCodec::FrameCodec(u64 max_frame_bytes) : max_(max_frame_bytes)
{
    if (max_ == 0)
        throw std::invalid_argument("FrameCodec: max frame size 0");
}

u32
FrameCodec::declaredLength() const
{
    u32 len = 0;
    for (size_t i = 0; i < kFrameHeaderBytes; ++i)
        len |= static_cast<u32>(header_[i]) << (8 * i);
    return len;
}

void
FrameCodec::feed(std::span<const u8> bytes)
{
    if (poisoned_)
        throw FrameError("FrameCodec: poisoned after framing error");
    while (!bytes.empty() && !badHeader_) {
        if (headerLen_ < kFrameHeaderBytes) {
            size_t take =
                std::min(bytes.size(), kFrameHeaderBytes - headerLen_);
            std::copy_n(bytes.begin(), take,
                        header_.begin() +
                            static_cast<std::ptrdiff_t>(headerLen_));
            headerLen_ += take;
            bytes = bytes.subspan(take);
            if (headerLen_ < kFrameHeaderBytes)
                return;
            // Validate the declared length BEFORE reserving: a hostile
            // header must not become a 4 GiB reserve. next() reports it.
            u32 len = declaredLength();
            if (len == 0 || len > max_) {
                badHeader_ = true;
                return;
            }
            // Address space only: nothing zero-fills the buffer, so
            // its pages become resident as payload bytes land in them.
            payload_.reserve(len);
        }
        size_t take = std::min<size_t>(bytes.size(),
                                       declaredLength() - payload_.size());
        payload_.insert(payload_.end(), bytes.begin(),
                        bytes.begin() + static_cast<std::ptrdiff_t>(take));
        bytes = bytes.subspan(take);
        if (payload_.size() == declaredLength()) {
            doneBytes_ += kFrameHeaderBytes + payload_.size();
            done_.push_back(std::exchange(payload_, {}));
            headerLen_ = 0;
        }
    }
}

bool
FrameCodec::hasCompleteFrame() const
{
    // A poisoned codec or a rejected header makes next() throw at once.
    return poisoned_ || badHeader_ || !done_.empty();
}

std::optional<std::vector<u8>>
FrameCodec::next()
{
    if (poisoned_)
        throw FrameError("FrameCodec: poisoned after framing error");
    if (!done_.empty()) {
        std::vector<u8> payload = std::move(done_.front());
        done_.pop_front();
        doneBytes_ -= kFrameHeaderBytes + payload.size();
        return payload;
    }
    if (!badHeader_)
        return std::nullopt;
    poisoned_ = true;
    u32 len = declaredLength();
    if (len == 0)
        throw FrameError("frame: zero-length frame");
    throw FrameError(strprintf(
        "frame: declared length %u exceeds the %llu-byte cap", len,
        static_cast<unsigned long long>(max_)));
}

} // namespace ive::net
