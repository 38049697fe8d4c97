#include "pir/wire.hh"

#include <algorithm>
#include <stdexcept>

#include "common/bitops.hh"
#include "common/failpoint.hh"
#include "common/logging.hh"
#include "modmath/primes.hh"

namespace ive {

namespace {

/** RNS primes are ~28-bit; eight already exceed the u128 headroom. */
constexpr u64 kMaxPrimes = 8;
/** Widest shard fan-out a PartialResponse may claim (2^16 systems). */
constexpr u64 kMaxShards = u64{1} << 16;
/**
 * Cap on the preprocessed database footprint (entries * planes * n *
 * k * 8 bytes) a params blob may imply: ServerSession materializes the
 * whole database in memory, so a hostile blob must not be able to
 * drive an allocation no host could satisfy. 64 GiB is comfortably
 * above every functional configuration in the repo; paper-scale
 * multi-TB stores are the cluster/sharding layer's business.
 */
constexpr u128 kMaxDbWireBytes = u128{1} << 36;
/**
 * Cap on a nested blob (params/keys/query) inside a session-protocol
 * frame. Real key blobs are tens of MiB at paper parameters; 1 GiB
 * bounds what a hostile length field can claim (readCount additionally
 * proves the bytes are actually present).
 */
constexpr u64 kMaxNestedBlobBytes = u64{1} << 30;

void
checkRange(ByteReader &r, bool ok, const char *what, u64 value)
{
    if (!ok)
        r.fail(strprintf("%s %llu out of range", what,
                         static_cast<unsigned long long>(value)));
}

} // namespace

std::vector<u8>
serializeParams(const PirParams &params)
{
    ByteWriter w;
    w.writeHeader(WireKind::Params);
    w.writeU64(params.he.n);
    w.writeU64(params.he.plainModulus);
    w.writeU32(static_cast<u32>(params.he.logZKs));
    w.writeU32(static_cast<u32>(params.he.ellKs));
    w.writeU32(static_cast<u32>(params.he.logZRgsw));
    w.writeU32(static_cast<u32>(params.he.ellRgsw));
    w.writeU64(params.he.primes.size());
    for (u64 p : params.he.primes)
        w.writeU64(p);
    w.writeU64(params.d0);
    w.writeU32(static_cast<u32>(params.d));
    w.writeU32(static_cast<u32>(params.planes));
    return w.take();
}

PirParams
deserializeParams(std::span<const u8> blob)
{
    ByteReader r(blob);
    r.readHeader(WireKind::Params);
    PirParams p;
    p.he.n = r.readU64();
    p.he.plainModulus = r.readU64();
    p.he.logZKs = static_cast<int>(r.readU32());
    p.he.ellKs = static_cast<int>(r.readU32());
    p.he.logZRgsw = static_cast<int>(r.readU32());
    p.he.ellRgsw = static_cast<int>(r.readU32());
    u64 num_primes = r.readCount(kMaxPrimes, 8, "prime");
    for (u64 i = 0; i < num_primes; ++i)
        p.he.primes.push_back(r.readU64());
    p.d0 = r.readU64();
    p.d = static_cast<int>(r.readU32());
    p.planes = static_cast<int>(r.readU32());
    r.expectEnd();
    try {
        p.validate();
    } catch (const std::invalid_argument &e) {
        r.fail(e.what());
    }
    // Database: bound the preprocessed bytes a blob can demand.
    u64 k = p.he.primes.empty() ? kIvePrimes.size() : p.he.primes.size();
    u128 pre_bytes = static_cast<u128>(p.numEntries()) * p.planes *
                     p.he.n * k * 8;
    if (pre_bytes > kMaxDbWireBytes)
        r.fail(strprintf("database of %llu x %d plaintexts needs "
                         "%.1f GiB preprocessed, over the wire cap",
                         static_cast<unsigned long long>(p.numEntries()),
                         p.planes,
                         static_cast<double>(pre_bytes) /
                             (1024.0 * 1024.0 * 1024.0)));
    return p;
}

std::vector<u8>
serializePublicKeys(const HeContext &ctx, const PirPublicKeys &keys)
{
    (void)ctx;
    ByteWriter w;
    w.writeHeader(WireKind::PublicKeys);
    w.writeU64(keys.evks.size());
    for (const EvkKey &evk : keys.evks)
        saveEvkKey(w, evk);
    saveRgswCiphertext(w, keys.rgswOfSecret);
    return w.take();
}

PirPublicKeys
deserializePublicKeys(const HeContext &ctx, const PirParams &params,
                      std::span<const u8> blob)
{
    ByteReader r(blob);
    r.readHeader(WireKind::PublicKeys);
    PirPublicKeys keys;
    // One evk per expansion-tree level; depth can never exceed log2(n).
    u64 max_evks = log2Exact(ctx.n());
    u64 evk_bytes = 16 + static_cast<u64>(ctx.config().ellKs) *
                             bfvCiphertextWireBytes(ctx.ring());
    u64 num_evks = r.readCount(max_evks, evk_bytes, "evk");
    for (u64 i = 0; i < num_evks; ++i)
        keys.evks.push_back(loadEvkKey(r, ctx));
    keys.rgswOfSecret = loadRgswCiphertext(r, ctx);
    r.expectEnd();

    // The server indexes evks[t] by expansion-tree level and assumes
    // the rotation schedule: a blob from mismatched params stops here.
    int depth = params.expansionDepth();
    if (keys.evks.size() < static_cast<u64>(depth))
        throw SerializeError(strprintf(
            "key blob has %zu evks, params need %d expansion levels",
            keys.evks.size(), depth));
    for (int t = 0; t < depth; ++t) {
        u64 want = ctx.n() / (u64{1} << t) + 1;
        if (keys.evks[t].r != want)
            throw SerializeError(strprintf(
                "evk %d rotates by %llu, expansion level needs %llu",
                t, static_cast<unsigned long long>(keys.evks[t].r),
                static_cast<unsigned long long>(want)));
    }
    return keys;
}

std::vector<u8>
serializeQuery(const HeContext &ctx, const PirQuery &query)
{
    (void)ctx;
    ByteWriter w;
    w.writeHeader(WireKind::Query);
    saveBfvCiphertext(w, query.ct);
    return w.take();
}

PirQuery
deserializeQuery(const HeContext &ctx, std::span<const u8> blob)
{
    ByteReader r(blob);
    r.readHeader(WireKind::Query);
    PirQuery q{loadBfvCiphertext(r, ctx.ring())};
    r.expectEnd();
    return q;
}

std::vector<u8>
serializeResponse(const HeContext &ctx, const PirResponse &response)
{
    (void)ctx;
    ByteWriter w;
    w.writeHeader(WireKind::Response);
    w.writeU64(response.planes.size());
    for (const BfvCiphertext &ct : response.planes)
        saveBfvCiphertext(w, ct);
    std::vector<u8> blob = w.take();
    // Failpoint: flip one byte (arg selects the offset from the end,
    // default the last byte — residue data, so the client's canonical-
    // residue validation or the decoded record catches it). Models a
    // bit flip between serialization and the wire.
    static fail::Failpoint &corrupt =
        fail::point("serialize.response.corrupt");
    if (fail::Hit h = corrupt.evaluate()) {
        // blob is never empty here: the header was just written.
        blob[blob.size() - 1 - (h.arg % blob.size())] ^= 0xFF;
    }
    return blob;
}

PirResponse
deserializeResponse(const HeContext &ctx, std::span<const u8> blob)
{
    ByteReader r(blob);
    r.readHeader(WireKind::Response);
    PirResponse resp;
    u64 planes = r.readCount(u64{1} << 20,
                             bfvCiphertextWireBytes(ctx.ring()),
                             "response plane");
    if (planes == 0)
        r.fail("response has zero planes");
    for (u64 i = 0; i < planes; ++i)
        resp.planes.push_back(loadBfvCiphertext(r, ctx.ring()));
    r.expectEnd();
    return resp;
}

std::vector<u8>
serializePartialResponse(const HeContext &ctx,
                         const PirPartialResponse &partial)
{
    (void)ctx;
    ByteWriter w;
    w.writeHeader(WireKind::PartialResponse);
    w.writeU32(partial.shard);
    w.writeU32(partial.numShards);
    w.writeU64(partial.planes.size());
    for (const BfvCiphertext &ct : partial.planes)
        saveBfvCiphertext(w, ct);
    return w.take();
}

PirPartialResponse
deserializePartialResponse(const HeContext &ctx,
                           std::span<const u8> blob)
{
    ByteReader r(blob);
    r.readHeader(WireKind::PartialResponse);
    PirPartialResponse partial;
    partial.shard = r.readU32();
    partial.numShards = r.readU32();
    // The tournament fold needs a power-of-two fan-out; anything else
    // can only be corruption or a cross-deployment mixup.
    checkRange(r,
               isPow2(partial.numShards) && partial.numShards <= kMaxShards,
               "shard count", partial.numShards);
    if (partial.shard >= partial.numShards)
        r.fail(strprintf("shard index %u out of range for %u shards",
                         partial.shard, partial.numShards));
    u64 planes = r.readCount(u64{1} << 20,
                             bfvCiphertextWireBytes(ctx.ring()),
                             "partial-response plane");
    if (planes == 0)
        r.fail("partial response has zero planes");
    for (u64 i = 0; i < planes; ++i)
        partial.planes.push_back(loadBfvCiphertext(r, ctx.ring()));
    r.expectEnd();
    return partial;
}

namespace {

/** Writes a length-prefixed nested blob, borrowed, into a frame. */
void
writeNestedBlob(WirePieces &frame, std::span<const u8> blob)
{
    frame.fields().writeU64(blob.size());
    frame.borrow(blob);
}

/**
 * Reads a length-prefixed nested blob as a view into the frame. The
 * declared length is checked against the remaining frame bytes, and a
 * nested blob must at least hold a wire header — an empty or
 * sub-header "blob" can only be garbage, so it is rejected here
 * instead of deep in a crypto deserializer.
 */
std::span<const u8>
readNestedBlob(ByteReader &r, const char *what)
{
    u64 len = r.readCount(kMaxNestedBlobBytes, 1, what);
    if (len < 6)
        r.fail(strprintf("%s of %llu bytes is too short to be a "
                         "framed blob",
                         what, static_cast<unsigned long long>(len)));
    return r.readView(len);
}

} // namespace

std::vector<u8>
serializeHello(const PirHello &hello)
{
    ByteWriter w;
    w.writeHeader(WireKind::Hello);
    w.writeU64(hello.clientId);
    w.writeU64(hello.generation);
    return w.take();
}

PirHello
deserializeHello(std::span<const u8> blob)
{
    ByteReader r(blob);
    r.readHeader(WireKind::Hello);
    PirHello hello;
    hello.clientId = r.readU64();
    hello.generation = r.readU64();
    r.expectEnd();
    return hello;
}

void
WirePieces::borrow(std::span<const u8> blob)
{
    borrowed_.push_back(Borrowed{fields_.buffer().size(), blob});
}

std::vector<std::span<const u8>>
WirePieces::pieces() const
{
    std::span<const u8> fields = fields_.buffer();
    std::vector<std::span<const u8>> out;
    auto add = [&out](std::span<const u8> piece) {
        if (!piece.empty())
            out.push_back(piece);
    };
    size_t from = 0;
    for (const Borrowed &b : borrowed_) {
        add(fields.subspan(from, b.at - from));
        add(b.blob);
        from = b.at;
    }
    add(fields.subspan(from));
    return out;
}

std::vector<u8>
WirePieces::flatten() const
{
    std::vector<std::span<const u8>> all = pieces();
    size_t bytes = 0;
    for (std::span<const u8> piece : all)
        bytes += piece.size();
    std::vector<u8> out;
    out.reserve(bytes);
    for (std::span<const u8> piece : all)
        out.insert(out.end(), piece.begin(), piece.end());
    return out;
}

WirePieces
registerKeysPieces(const PirRegisterKeys &reg)
{
    WirePieces frame;
    frame.fields().writeHeader(WireKind::RegisterKeys);
    frame.fields().writeU64(reg.clientId);
    writeNestedBlob(frame, reg.paramsBlob);
    writeNestedBlob(frame, reg.keyBlob);
    return frame;
}

std::vector<u8>
serializeRegisterKeys(const PirRegisterKeys &reg)
{
    return registerKeysPieces(reg).flatten();
}

PirRegisterKeys
deserializeRegisterKeys(std::span<const u8> blob)
{
    ByteReader r(blob);
    r.readHeader(WireKind::RegisterKeys);
    // Braced initializers evaluate in order: the fields' wire order.
    PirRegisterKeys reg{r.readU64(), readNestedBlob(r, "params blob byte"),
                        readNestedBlob(r, "key blob byte")};
    r.expectEnd();
    return reg;
}

WirePieces
queryRefPieces(const PirQueryRef &ref)
{
    WirePieces frame;
    frame.fields().writeHeader(WireKind::QueryRef);
    frame.fields().writeU64(ref.clientId);
    frame.fields().writeU64(ref.generation);
    writeNestedBlob(frame, ref.queryBlob);
    return frame;
}

std::vector<u8>
serializeQueryRef(const PirQueryRef &ref)
{
    return queryRefPieces(ref).flatten();
}

PirQueryRef
deserializeQueryRef(std::span<const u8> blob)
{
    ByteReader r(blob);
    r.readHeader(WireKind::QueryRef);
    PirQueryRef ref{r.readU64(), r.readU64(),
                    readNestedBlob(r, "query blob byte")};
    r.expectEnd();
    return ref;
}

std::vector<u8>
serializeErrorResponse(const PirErrorResponse &err)
{
    ByteWriter w;
    w.writeHeader(WireKind::ErrorResponse);
    w.writeU32(static_cast<u32>(err.code));
    u64 len = std::min<u64>(err.message.size(), kMaxErrorMessageBytes);
    w.writeU64(len);
    w.writeBytes(std::span<const u8>(
        // lint: allow(unchecked-serialize) -- capped char-to-byte view
        reinterpret_cast<const u8 *>(err.message.data()), len));
    return w.take();
}

PirErrorResponse
deserializeErrorResponse(std::span<const u8> blob)
{
    ByteReader r(blob);
    r.readHeader(WireKind::ErrorResponse);
    PirErrorResponse err;
    u32 code = r.readU32();
    checkRange(r,
               code >= static_cast<u32>(NetErrorCode::BadFrame) &&
                   code <= static_cast<u32>(NetErrorCode::Internal),
               "error code", code);
    err.code = static_cast<NetErrorCode>(code);
    u64 len = r.readCount(kMaxErrorMessageBytes, 1, "error message byte");
    err.message.reserve(len);
    for (u64 i = 0; i < len; ++i)
        err.message.push_back(static_cast<char>(r.readU8()));
    r.expectEnd();
    return err;
}

WireKind
peekWireKind(std::span<const u8> blob)
{
    ByteReader r(blob);
    // Reuse the canonical magic/version validation; the kind check in
    // readHeader is an equality test, so probe the byte first.
    if (blob.size() < 6)
        r.fail("truncated reading wire header");
    u8 kind = blob[5];
    if (kind < static_cast<u8>(WireKind::Params) ||
        kind > static_cast<u8>(WireKind::ErrorResponse))
        r.fail(strprintf("unknown wire kind %u", kind));
    r.readHeader(static_cast<WireKind>(kind));
    return static_cast<WireKind>(kind);
}

} // namespace ive
