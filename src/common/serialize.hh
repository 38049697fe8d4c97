/**
 * @file
 * Versioned binary wire format: bounds-checked little-endian I/O.
 *
 * Every blob that crosses a process boundary (keys, queries, responses,
 * parameter sets) starts with a four-byte magic "IVEW", a format version
 * byte, and an object-kind byte. ByteWriter appends fixed-width
 * little-endian fields to a growable buffer; ByteReader validates every
 * read against the remaining length and throws SerializeError — it
 * never over-reads, aborts, or trusts an attacker-controlled size. Any
 * change to the byte layout of an object must bump kWireVersion (see
 * README "Wire format").
 */

#ifndef IVE_COMMON_SERIALIZE_HH
#define IVE_COMMON_SERIALIZE_HH

#include <span>
#include <string>
#include <vector>

#include "common/error.hh" // SerializeError lives in the taxonomy.
#include "common/types.hh"

namespace ive {

/** Current wire-format version; bump on any layout change. */
inline constexpr u8 kWireVersion = 3;

/** Magic prefix of every top-level blob. */
inline constexpr u8 kWireMagic[4] = {'I', 'V', 'E', 'W'};

/** Object-kind byte following the version byte of a top-level blob. */
enum class WireKind : u8
{
    Params = 1,
    PublicKeys = 2,
    Query = 3,
    Response = 4,
    PartialResponse = 5,
    // Network session-protocol frames (src/net/): see pir/wire.hh.
    Hello = 6,
    RegisterKeys = 7,
    QueryRef = 8,
    ErrorResponse = 9,
};

/** Appends little-endian fields to a growable byte buffer. */
class ByteWriter
{
  public:
    void
    writeU8(u8 v)
    {
        buf_.push_back(v);
    }

    void
    writeU32(u32 v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void
    writeU64(u64 v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void
    writeBytes(std::span<const u8> bytes)
    {
        buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    }

    /**
     * Bulk little-endian write of a whole word span: one buffer grow +
     * memcpy on little-endian hosts instead of one writeU64 call per
     * word. Byte layout is identical to a writeU64 loop.
     */
    void writeU64Span(std::span<const u64> words);

    /** Writes magic, version, and kind (start of a top-level blob). */
    void writeHeader(WireKind kind);

    const std::vector<u8> &buffer() const { return buf_; }
    std::vector<u8> take() { return std::move(buf_); }

  private:
    std::vector<u8> buf_;
};

/** Bounds-checked reader over a borrowed byte span. */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const u8> data) : data_(data) {}

    u8
    readU8()
    {
        need(1, "u8");
        return data_[pos_++];
    }

    u32
    readU32()
    {
        need(4, "u32");
        u32 v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<u32>(data_[pos_++]) << (8 * i);
        return v;
    }

    u64
    readU64()
    {
        need(8, "u64");
        u64 v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<u64>(data_[pos_++]) << (8 * i);
        return v;
    }

    /**
     * Bulk little-endian read of out.size() words, bounds-checked as a
     * whole before any byte is copied (memcpy on little-endian hosts).
     * Equivalent to a readU64 loop, minus the per-word length checks.
     */
    void readU64Span(std::span<u64> out);

    /**
     * A view of the next n raw bytes, bounds-checked as a whole. It
     * borrows the reader's input, so it is valid as long as that is.
     */
    std::span<const u8>
    readView(size_t n)
    {
        need(n, "byte span");
        std::span<const u8> view = data_.subspan(pos_, n);
        pos_ += n;
        return view;
    }

    /**
     * Validates magic, version, and kind; throws SerializeError with a
     * message naming the offending field on any mismatch.
     */
    void readHeader(WireKind expected_kind);

    /**
     * Reads an element count declared in the stream and checks it
     * against what the remaining bytes could possibly hold
     * (min_elem_bytes each), so a hostile length can never drive a
     * giant allocation or an over-read. Also enforces count <= max.
     */
    u64 readCount(u64 max, u64 min_elem_bytes, const char *what);

    size_t remaining() const { return data_.size() - pos_; }

    /** Throws if any bytes remain (top-level blobs must parse fully). */
    void expectEnd() const;

    [[noreturn]] void fail(const std::string &msg) const;

  private:
    void
    need(size_t n, const char *what)
    {
        if (remaining() < n)
            fail(std::string("truncated reading ") + what);
    }

    std::span<const u8> data_;
    size_t pos_ = 0;
};

} // namespace ive

#endif // IVE_COMMON_SERIALIZE_HH
