#include "net/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "net/registry.hh"

namespace ive::net {

void
throwErrorResponse(const PirErrorResponse &err)
{
    switch (err.code) {
    case NetErrorCode::BadFrame:
    case NetErrorCode::BadRequest:
        throw SerializeError(err.message);
    case NetErrorCode::UnknownClient:
        throw UnknownClientError(err.message);
    case NetErrorCode::StaleGeneration:
        throw StaleGenerationError(err.message);
    case NetErrorCode::Overloaded:
        throw Overloaded(err.message);
    case NetErrorCode::DeadlineExceeded:
        throw DeadlineExceeded(err.message);
    case NetErrorCode::ShuttingDown:
        throw ShutdownError(err.message);
    case NetErrorCode::Unavailable:
        throw ShardUnavailable(err.message);
    case NetErrorCode::Internal:
        break;
    }
    throw Error(err.message);
}

PirTcpClient::PirTcpClient(const std::string &host, u16 port,
                           double timeout_sec, u64 max_frame_bytes)
    : codec_(max_frame_bytes)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        throw Error(strprintf("client socket: %s",
                              std::strerror(errno)));
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_sec);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_sec - std::floor(timeout_sec)) * 1e6);
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd_);
        fd_ = -1;
        throw Error(strprintf("bad host address \"%s\"", host.c_str()));
    }
    if (connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                sizeof addr) < 0) {
        int saved = errno;
        ::close(fd_);
        fd_ = -1;
        throw Error(strprintf("connect %s:%u: %s", host.c_str(),
                              unsigned{port}, std::strerror(saved)));
    }
}

PirTcpClient::~PirTcpClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
PirTcpClient::sendFrame(std::span<const u8> payload)
{
    sendPieces(std::span(&payload, 1));
}

void
PirTcpClient::sendRaw(std::span<const u8> bytes)
{
    iovec iov{const_cast<u8 *>(bytes.data()), bytes.size()};
    sendIov(std::span(&iov, 1));
}

void
PirTcpClient::sendPieces(std::span<const std::span<const u8>> payload)
{
    u64 bytes = 0;
    for (std::span<const u8> piece : payload)
        bytes += piece.size();
    std::array<u8, kFrameHeaderBytes> header = frameHeader(bytes);
    std::vector<iovec> iov;
    iov.reserve(payload.size() + 1);
    iov.push_back(iovec{header.data(), header.size()});
    for (std::span<const u8> piece : payload)
        iov.push_back(iovec{const_cast<u8 *>(piece.data()), piece.size()});
    sendIov(iov);
}

void
PirTcpClient::sendIov(std::span<iovec> iov)
{
    for (;;) {
        while (!iov.empty() && iov.front().iov_len == 0)
            iov = iov.subspan(1);
        if (iov.empty())
            return;
        msghdr msg{};
        msg.msg_iov = iov.data();
        msg.msg_iovlen = iov.size();
        ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
        if (n > 0) {
            // Drop the fully sent iovecs; trim the one sent in part.
            size_t sent = static_cast<size_t>(n);
            while (sent >= iov.front().iov_len) {
                sent -= iov.front().iov_len;
                iov = iov.subspan(1);
                if (iov.empty())
                    return;
            }
            iov.front().iov_base =
                static_cast<u8 *>(iov.front().iov_base) + sent;
            iov.front().iov_len -= sent;
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else if (n < 0 &&
                   (errno == EAGAIN || errno == EWOULDBLOCK)) {
            throw DeadlineExceeded("client send timed out");
        } else {
            closed_ = true;
            throw Error(strprintf("client send: %s",
                                  std::strerror(errno)));
        }
    }
}

std::vector<u8>
PirTcpClient::recvFrame()
{
    for (;;) {
        if (std::optional<std::vector<u8>> payload = codec_.next())
            return std::move(*payload);
        u8 buf[16 * 1024];
        ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n > 0) {
            codec_.feed(
                std::span<const u8>(buf, static_cast<size_t>(n)));
        } else if (n == 0) {
            closed_ = true;
            throw Error("server closed the connection");
        } else if (errno == EINTR) {
            continue;
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
            throw DeadlineExceeded("client receive timed out");
        } else {
            closed_ = true;
            throw Error(strprintf("client recv: %s",
                                  std::strerror(errno)));
        }
    }
}

std::vector<u8>
PirTcpClient::roundTrip(std::span<const std::span<const u8>> payload)
{
    sendPieces(payload);
    std::vector<u8> resp = recvFrame();
    if (peekWireKind(resp) == WireKind::ErrorResponse)
        throwErrorResponse(deserializeErrorResponse(resp));
    return resp;
}

PirHello
PirTcpClient::hello(u64 client_id)
{
    std::vector<u8> blob = serializeHello(PirHello{client_id, 0});
    std::span<const u8> payload = blob;
    return deserializeHello(roundTrip(std::span(&payload, 1)));
}

u64
PirTcpClient::registerKeys(u64 client_id,
                           std::span<const u8> params_blob,
                           std::span<const u8> key_blob)
{
    WirePieces frame = registerKeysPieces(
        PirRegisterKeys{client_id, params_blob, key_blob});
    PirHello ack = deserializeHello(roundTrip(frame.pieces()));
    if (ack.clientId != client_id)
        throw Error(strprintf(
            "register ack for client %llu, expected %llu",
            static_cast<unsigned long long>(ack.clientId),
            static_cast<unsigned long long>(client_id)));
    return ack.generation;
}

std::vector<u8>
PirTcpClient::query(u64 client_id, u64 generation,
                    std::span<const u8> query_blob)
{
    WirePieces frame =
        queryRefPieces(PirQueryRef{client_id, generation, query_blob});
    return roundTrip(frame.pieces());
}

} // namespace ive::net
