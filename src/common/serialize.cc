#include "common/serialize.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace ive {

void
ByteWriter::writeU64Span(std::span<const u64> words)
{
    if constexpr (std::endian::native == std::endian::little) {
        size_t old = buf_.size();
        buf_.resize(old + words.size() * 8);
        // lint: allow(unchecked-serialize) -- dst was resize()d to exactly old + 8*size above; this IS the ByteWriter bulk primitive
        std::memcpy(buf_.data() + old, words.data(), words.size() * 8);
    } else {
        for (u64 w : words)
            writeU64(w);
    }
}

void
ByteReader::readU64Span(std::span<u64> out)
{
    need(out.size() * 8, "u64 span");
    if constexpr (std::endian::native == std::endian::little) {
        // lint: allow(unchecked-serialize) -- need() above proved 8*size bytes remain; this IS the ByteReader bulk primitive
        std::memcpy(out.data(), data_.data() + pos_, out.size() * 8);
        pos_ += out.size() * 8;
    } else {
        for (u64 &w : out)
            w = readU64();
    }
}

void
ByteWriter::writeHeader(WireKind kind)
{
    writeBytes(kWireMagic);
    writeU8(kWireVersion);
    writeU8(static_cast<u8>(kind));
}

void
ByteReader::readHeader(WireKind expected_kind)
{
    if (remaining() < sizeof(kWireMagic) + 2)
        fail("truncated wire header");
    for (u8 m : kWireMagic) {
        if (readU8() != m)
            fail("bad magic (not an IVE wire blob)");
    }
    u8 version = readU8();
    if (version != kWireVersion)
        fail(strprintf("unsupported wire version %u (expected %u)",
                       version, kWireVersion));
    u8 kind = readU8();
    if (kind != static_cast<u8>(expected_kind))
        fail(strprintf("wrong object kind %u (expected %u)", kind,
                       static_cast<unsigned>(expected_kind)));
}

u64
ByteReader::readCount(u64 max, u64 min_elem_bytes, const char *what)
{
    u64 count = readU64();
    if (count > max)
        fail(strprintf("%s count %llu out of range (max %llu)", what,
                       static_cast<unsigned long long>(count),
                       static_cast<unsigned long long>(max)));
    if (min_elem_bytes > 0 && count > remaining() / min_elem_bytes)
        fail(strprintf("%s count %llu exceeds remaining buffer", what,
                       static_cast<unsigned long long>(count)));
    return count;
}

void
ByteReader::expectEnd() const
{
    if (remaining() != 0)
        fail(strprintf("%zu trailing bytes after blob", remaining()));
}

void
ByteReader::fail(const std::string &msg) const
{
    throw SerializeError(strprintf("wire: %s (at offset %zu of %zu)",
                                   msg.c_str(), pos_, data_.size()));
}

} // namespace ive
