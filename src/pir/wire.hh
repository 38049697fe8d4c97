/**
 * @file
 * Top-level wire blobs for the PIR protocol.
 *
 * Five framed blob kinds cross the client/server boundary (compare
 * SealPIR's serialized Galois keys and query/reply strings):
 *
 *   Params          - the negotiated parameter set (no secrets)
 *   PublicKeys      - per-client expansion evks + RGSW(s), uploaded once
 *   Query           - one packed query ciphertext
 *   Response        - one BfvCiphertext per plane of the addressed record
 *   PartialResponse - one shard's unfused partial ciphertext per plane,
 *                     gathered by the shard coordinator for the final
 *                     tournament fold (paper SV record-level scale-out)
 *
 * Each blob is magic "IVEW" + version + kind, then the object fields
 * (see README "Wire format" for the exact field order). Deserializers
 * consume the entire buffer and throw SerializeError on any malformed,
 * truncated, or version-incompatible input; every ciphertext side they
 * load must be in NTT form (loadBfvCiphertext rejects the other tag).
 */

#ifndef IVE_PIR_WIRE_HH
#define IVE_PIR_WIRE_HH

#include "pir/client.hh"

namespace ive {

/** Server's answer to one query: one ciphertext per record plane. */
struct PirResponse
{
    std::vector<BfvCiphertext> planes;
};

/**
 * One shard's partial answer: the slice-local ColTor result per plane,
 * still awaiting the final log2(numShards) tournament levels on the
 * coordinator. shard/numShards identify the slice so the coordinator
 * can order the partials and reject cross-deployment mixups.
 */
struct PirPartialResponse
{
    u32 shard = 0;
    u32 numShards = 1;
    std::vector<BfvCiphertext> planes;
};

std::vector<u8> serializeParams(const PirParams &params);
/** Reads the fields, checks them through PirParams::validate(), and
 *  caps the database a blob may demand at 64 GiB preprocessed. */
PirParams deserializeParams(std::span<const u8> blob);

std::vector<u8> serializePublicKeys(const HeContext &ctx,
                                    const PirPublicKeys &keys);
/** The one key decoder: structure (every row in NTT form), then the
 *  params' expansion schedule (extra evks accepted). A blob that
 *  passes builds a PirServer without aborting. */
PirPublicKeys deserializePublicKeys(const HeContext &ctx,
                                    const PirParams &params,
                                    std::span<const u8> blob);

std::vector<u8> serializeQuery(const HeContext &ctx,
                               const PirQuery &query);
PirQuery deserializeQuery(const HeContext &ctx,
                          std::span<const u8> blob);

std::vector<u8> serializeResponse(const HeContext &ctx,
                                  const PirResponse &response);
PirResponse deserializeResponse(const HeContext &ctx,
                                std::span<const u8> blob);

std::vector<u8>
serializePartialResponse(const HeContext &ctx,
                         const PirPartialResponse &partial);
PirPartialResponse
deserializePartialResponse(const HeContext &ctx,
                           std::span<const u8> blob);

/*
 * Session-protocol frames for the network front-end (src/net/). These
 * four kinds carry the existing blobs above as opaque nested byte
 * strings, so the net layer can route a frame without a HeContext; the
 * crypto-bearing payloads are validated by the nested deserializers
 * once the frame reaches the session registry / query engine.
 *
 * The nested blobs of PirRegisterKeys and PirQueryRef are views, so a
 * blob moves once between its owner and its decoder: encoding borrows
 * them from the caller, decoding points them into the decoded frame.
 * Lifetime rule: the bytes a view names must outlive the struct. Hold
 * them in a named object; a view assigned from a call's temporary
 * result dangles (lint rule session-view flags that assignment).
 */

/**
 * Connection handshake and registration acknowledgement. A client
 * sends Hello{clientId, 0}; the server replies Hello{clientId, g}
 * where g is the client's current key generation (0 = not registered).
 * RegisterKeys is acknowledged with the same frame carrying the newly
 * assigned generation.
 */
struct PirHello
{
    u64 clientId = 0;
    u64 generation = 0;
};

/**
 * One-time key upload (SealPIR's set_galois_key(client_id, keys)
 * pattern): the client's Params and PublicKeys blobs, registered
 * under clientId so later queries can reference the id instead of
 * re-shipping megabytes of keys. Both blobs are views (see above).
 */
struct PirRegisterKeys
{
    u64 clientId = 0;
    std::span<const u8> paramsBlob;
    std::span<const u8> keyBlob;
};

/**
 * A query referencing previously registered keys. generation must
 * match the registry's current generation for clientId — a client
 * that was LRU-evicted and re-registered gets a new generation, so a
 * stale reference can never be served with the wrong keys. The query
 * blob is a view (see above).
 */
struct PirQueryRef
{
    u64 clientId = 0;
    u64 generation = 0;
    std::span<const u8> queryBlob;
};

/**
 * A session frame as a gather list: the encoder's own fields (wire
 * header, ids, nested-blob lengths) in one owned buffer, with each
 * nested blob borrowed in place between them. The TCP client sends
 * pieces() with one gather write, so a caller's blob is never copied
 * in user space; serializeRegisterKeys / serializeQueryRef return
 * flatten() of the same encoder's pieces, so both write the same
 * bytes. The borrowed blobs must outlive the object.
 */
class WirePieces
{
  public:
    /** Appends to the encoder's own fields. */
    ByteWriter &fields() { return fields_; }

    /** Borrows blob, placed after the fields written so far. */
    void borrow(std::span<const u8> blob);

    /** The frame in wire order, empty pieces left out; they point
     *  into this object and into the borrowed blobs. */
    std::vector<std::span<const u8>> pieces() const;

    /** The pieces concatenated into one buffer. */
    std::vector<u8> flatten() const;

  private:
    /** A borrowed blob and the fields_ offset it follows. */
    struct Borrowed
    {
        size_t at = 0;
        std::span<const u8> blob;
    };

    ByteWriter fields_;
    std::vector<Borrowed> borrowed_;
};

/** Typed failure codes carried by an ErrorResponse frame. */
enum class NetErrorCode : u32
{
    BadFrame = 1,        // malformed/oversized frame or wire payload
    BadRequest = 2,      // well-framed but semantically invalid
    UnknownClient = 3,   // QueryRef for an unregistered client id
    StaleGeneration = 4, // QueryRef generation no longer current
    Overloaded = 5,      // admission control shed the request
    DeadlineExceeded = 6,
    ShuttingDown = 7,
    Unavailable = 8, // shard/replica path unavailable
    Internal = 9,
};

/** Cap on the human-readable message an ErrorResponse may carry. */
inline constexpr u64 kMaxErrorMessageBytes = 1024;

/**
 * Typed error frame the server sends instead of a Response when a
 * request fails; messages longer than kMaxErrorMessageBytes are
 * truncated on encode and rejected on decode.
 */
struct PirErrorResponse
{
    NetErrorCode code = NetErrorCode::Internal;
    std::string message;
};

std::vector<u8> serializeHello(const PirHello &hello);
PirHello deserializeHello(std::span<const u8> blob);

/** The one RegisterKeys encoder; serializeRegisterKeys flattens it. */
WirePieces registerKeysPieces(const PirRegisterKeys &reg);
std::vector<u8> serializeRegisterKeys(const PirRegisterKeys &reg);
/** The returned views point into blob. */
PirRegisterKeys deserializeRegisterKeys(std::span<const u8> blob);

/** The one QueryRef encoder; serializeQueryRef flattens it. */
WirePieces queryRefPieces(const PirQueryRef &ref);
std::vector<u8> serializeQueryRef(const PirQueryRef &ref);
/** The returned view points into blob. */
PirQueryRef deserializeQueryRef(std::span<const u8> blob);

std::vector<u8> serializeErrorResponse(const PirErrorResponse &err);
PirErrorResponse deserializeErrorResponse(std::span<const u8> blob);

/**
 * Validates the magic/version prefix and returns the kind byte of a
 * top-level blob without consuming it — the net layer's frame router.
 * Throws SerializeError on short buffers, bad magic, wrong version,
 * or a kind byte outside the WireKind enum.
 */
WireKind peekWireKind(std::span<const u8> blob);

} // namespace ive

#endif // IVE_PIR_WIRE_HH
