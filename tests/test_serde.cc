/**
 * @file
 * Wire-format round trips and malformed-input rejection.
 *
 * Every serializable protocol object must round-trip bit-exactly, and
 * every malformed blob (truncated, bad magic, wrong version, hostile
 * sizes, non-canonical residues) must throw SerializeError with a
 * descriptive message — never crash or over-read. The truncation
 * sweeps exercise every prefix length, which is what the IVE_SANITIZE
 * CI configuration is for.
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "modmath/primes.hh"
#include "pir/session.hh"
#include "poly/simd/simd.hh"
#include "shard/coordinator.hh"

using namespace ive;

namespace {

/** Smallest legal geometry: keeps exhaustive byte sweeps cheap. */
PirParams
tinyParams()
{
    PirParams p = PirParams::testSmall();
    p.he.n = 256;
    p.d0 = 4;
    p.d = 1;
    return p;
}

struct SerdeFixture
{
    SerdeFixture() : params(tinyParams()), ctx(params.he), rng(42) {}

    PirParams params;
    HeContext ctx;
    Rng rng;
};

std::string
throwMessage(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const SerializeError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Serde, RnsPolyRoundTripBothDomains)
{
    SerdeFixture f;
    for (Domain dom : {Domain::Coeff, Domain::Ntt}) {
        RnsPoly poly = RnsPoly::uniform(f.ctx.ring(), f.rng, dom);
        ByteWriter w;
        saveRnsPoly(w, poly);
        EXPECT_EQ(w.buffer().size(), 1 + f.ctx.ring().words() * 8);
        ByteReader r(w.buffer());
        RnsPoly back = loadRnsPoly(r, f.ctx.ring());
        r.expectEnd();
        EXPECT_EQ(back, poly);
        EXPECT_EQ(back.domain(), dom);
    }
}

TEST(Serde, RnsPolyRejectsBadDomainAndResidues)
{
    SerdeFixture f;
    RnsPoly poly = RnsPoly::uniform(f.ctx.ring(), f.rng, Domain::Ntt);
    ByteWriter w;
    saveRnsPoly(w, poly);
    std::vector<u8> bytes = w.take();

    std::vector<u8> bad_domain = bytes;
    bad_domain[0] = 7;
    ByteReader r1(bad_domain);
    EXPECT_THROW(loadRnsPoly(r1, f.ctx.ring()), SerializeError);

    // Force residue 0 of prime 0 to q0 (out of canonical range).
    std::vector<u8> bad_residue = bytes;
    u64 q0 = f.ctx.ring().base.modulus(0).value();
    for (int i = 0; i < 8; ++i)
        bad_residue[1 + i] = static_cast<u8>(q0 >> (8 * i));
    ByteReader r2(bad_residue);
    std::string msg = throwMessage(
        [&] { loadRnsPoly(r2, f.ctx.ring()); });
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
}

TEST(Serde, BfvCiphertextRoundTrip)
{
    SerdeFixture f;
    SecretKey sk(f.ctx, f.rng);
    std::vector<u64> plain(f.ctx.n());
    for (auto &c : plain)
        c = f.rng.uniform(f.ctx.plainModulus());
    BfvCiphertext ct = encryptPlain(f.ctx, sk, f.rng, plain);

    ByteWriter w;
    saveBfvCiphertext(w, ct);
    ByteReader r(w.buffer());
    BfvCiphertext back = loadBfvCiphertext(r, f.ctx.ring());
    r.expectEnd();
    EXPECT_EQ(back.a, ct.a);
    EXPECT_EQ(back.b, ct.b);
    EXPECT_EQ(decrypt(f.ctx, sk, back), plain);
}

TEST(Serde, EvkKeyRoundTrip)
{
    SerdeFixture f;
    SecretKey sk(f.ctx, f.rng);
    EvkKey evk = genEvk(f.ctx, sk, f.rng, f.ctx.n() / 2 + 1);

    ByteWriter w;
    saveEvkKey(w, evk);
    std::vector<u8> bytes = w.take();
    ByteReader r(bytes);
    EvkKey back = loadEvkKey(r, f.ctx);
    r.expectEnd();
    EXPECT_EQ(back.r, evk.r);
    ASSERT_EQ(back.rows.size(), evk.rows.size());
    for (size_t i = 0; i < evk.rows.size(); ++i) {
        EXPECT_EQ(back.rows[i].a, evk.rows[i].a);
        EXPECT_EQ(back.rows[i].b, evk.rows[i].b);
    }

    // Even rotations are invalid automorphisms.
    std::vector<u8> bad = bytes;
    bad[0] = 2;
    for (int i = 1; i < 8; ++i)
        bad[i] = 0;
    ByteReader r2(bad);
    EXPECT_THROW(loadEvkKey(r2, f.ctx), SerializeError);
}

TEST(Serde, RgswCiphertextRoundTrip)
{
    SerdeFixture f;
    SecretKey sk(f.ctx, f.rng);
    RgswCiphertext rgsw = encryptRgswConst(f.ctx, sk, f.rng, 1);

    ByteWriter w;
    saveRgswCiphertext(w, rgsw);
    std::vector<u8> bytes = w.take();
    ByteReader r(bytes);
    RgswCiphertext back = loadRgswCiphertext(r, f.ctx);
    r.expectEnd();
    EXPECT_EQ(back.ell, rgsw.ell);
    ASSERT_EQ(back.rows.size(), rgsw.rows.size());
    for (size_t i = 0; i < rgsw.rows.size(); ++i) {
        EXPECT_EQ(back.rows[i].a, rgsw.rows[i].a);
        EXPECT_EQ(back.rows[i].b, rgsw.rows[i].b);
    }

    // An ell mismatching the context gadget must be rejected.
    std::vector<u8> bad = bytes;
    bad[0] = static_cast<u8>(rgsw.ell + 1);
    ByteReader r2(bad);
    EXPECT_THROW(loadRgswCiphertext(r2, f.ctx), SerializeError);
}

TEST(Serde, ParamsRoundTrip)
{
    PirParams p = tinyParams();
    p.planes = 3;
    std::vector<u8> blob = serializeParams(p);
    PirParams back = deserializeParams(blob);
    EXPECT_EQ(back.he.n, p.he.n);
    EXPECT_EQ(back.he.primes, p.he.primes);
    EXPECT_EQ(back.he.plainModulus, p.he.plainModulus);
    EXPECT_EQ(back.he.logZKs, p.he.logZKs);
    EXPECT_EQ(back.he.ellKs, p.he.ellKs);
    EXPECT_EQ(back.he.logZRgsw, p.he.logZRgsw);
    EXPECT_EQ(back.he.ellRgsw, p.he.ellRgsw);
    EXPECT_EQ(back.d0, p.d0);
    EXPECT_EQ(back.d, p.d);
    EXPECT_EQ(back.planes, p.planes);
    // Round-trip again: serialization must be canonical.
    EXPECT_EQ(serializeParams(back), blob);
}

TEST(Serde, ParamsRoundTripWithExplicitPrimes)
{
    PirParams p = tinyParams();
    p.he.primes = {kIvePrimes[0], kIvePrimes[1], kIvePrimes[2]};
    std::vector<u8> blob = serializeParams(p);
    EXPECT_EQ(deserializeParams(blob).he.primes, p.he.primes);
}

TEST(Serde, ParamsRejectsNonConstructibleConfigs)
{
    // Each of these would abort inside Modulus/RnsBase/NttTable/
    // Gadget/HeContext construction; the decoder must throw instead.
    auto reject = [](const PirParams &p, const char *what) {
        EXPECT_THROW(deserializeParams(serializeParams(p)),
                     SerializeError)
            << what;
    };

    PirParams composite = tinyParams();
    composite.he.primes = {kIvePrimes[0], 134250495}; // divisible by 3
    reject(composite, "composite modulus");

    PirParams non_ntt = tinyParams();
    non_ntt.he.primes = {kIvePrimes[0], 1000003}; // prime, != 1 mod 2n
    reject(non_ntt, "NTT-unfriendly prime");

    PirParams dup = tinyParams();
    dup.he.primes = {kIvePrimes[0], kIvePrimes[0]};
    reject(dup, "duplicate prime");

    PirParams no_room = tinyParams();
    no_room.he.primes = {kIvePrimes[0], kIvePrimes[1]}; // |Q| = 54
    no_room.he.plainModulus = u64{1} << 40; // needs > 60 bits
    reject(no_room, "no noise room");

    PirParams weak_gadget = tinyParams();
    weak_gadget.he.logZKs = 2;
    weak_gadget.he.ellKs = 2; // z^l = 2^4 << Q
    reject(weak_gadget, "gadget does not cover Q");

    PirParams wide_gadget = tinyParams();
    wide_gadget.he.logZKs = 31; // Gadget asserts logZ <= 30
    reject(wide_gadget, "gadget base too wide");

    PirParams huge_db = tinyParams();
    huge_db.he.n = 1024;
    huge_db.d0 = 16;
    huge_db.d = 40;
    huge_db.planes = 1024; // 16 * 2^40 * 2^10 plaintexts
    reject(huge_db, "database beyond wire cap");

    // The exploit shape from review: entry count at a round power of
    // two but a preprocessed footprint in the hundreds of TB.
    PirParams wide_db = PirParams::functionalDefault();
    wide_db.d0 = 2048;
    wide_db.d = 21;
    reject(wide_db, "database bytes beyond wire cap");
}

TEST(Serde, ParamsTruncationSweep)
{
    std::vector<u8> blob = serializeParams(tinyParams());
    for (size_t len = 0; len < blob.size(); ++len) {
        EXPECT_THROW(
            deserializeParams(std::span(blob.data(), len)),
            SerializeError)
            << "prefix length " << len;
    }
}

TEST(Serde, ParamsHeaderErrors)
{
    std::vector<u8> blob = serializeParams(tinyParams());

    std::vector<u8> bad_magic = blob;
    bad_magic[0] = 'X';
    EXPECT_NE(throwMessage([&] { deserializeParams(bad_magic); })
                  .find("magic"),
              std::string::npos);

    std::vector<u8> bad_version = blob;
    bad_version[4] = kWireVersion + 1;
    EXPECT_NE(throwMessage([&] { deserializeParams(bad_version); })
                  .find("version"),
              std::string::npos);

    std::vector<u8> bad_kind = blob;
    bad_kind[5] = static_cast<u8>(WireKind::Response);
    EXPECT_NE(throwMessage([&] { deserializeParams(bad_kind); })
                  .find("kind"),
              std::string::npos);

    std::vector<u8> trailing = blob;
    trailing.push_back(0);
    EXPECT_NE(throwMessage([&] { deserializeParams(trailing); })
                  .find("trailing"),
              std::string::npos);
}

TEST(Serde, ParamsHostileSizesThrow)
{
    std::vector<u8> blob = serializeParams(tinyParams());
    // The primes count is the u64 at offset 6+8+8+4*4 = 38. A huge
    // count must throw, not drive a giant allocation or over-read.
    size_t off = 38;
    std::vector<u8> huge = blob;
    for (int i = 0; i < 8; ++i)
        huge[off + i] = 0xff;
    std::string msg =
        throwMessage([&] { deserializeParams(huge); });
    EXPECT_NE(msg.find("count"), std::string::npos) << msg;

    // A count that passes the cap but exceeds the buffer also throws.
    std::vector<u8> over = blob;
    over[off] = 7;
    EXPECT_THROW(deserializeParams(over), SerializeError);
}

TEST(Serde, ParamsRejectsInconsistentGeometry)
{
    PirParams p = tinyParams();
    std::vector<u8> blob = serializeParams(p);
    // d0 sits right after the primes: offset 38 + 8 + 8*k.
    size_t off = 46 + 8 * p.he.primes.size();
    std::vector<u8> bad = blob;
    bad[off] = 3; // not a power of two
    EXPECT_THROW(deserializeParams(bad), SerializeError);

    // d too large for the ring (usedLeaves > n).
    PirParams q = tinyParams();
    q.d0 = 256; // 256 + d*8 > 256 for any d >= 1
    q.d = 1;
    EXPECT_THROW(deserializeParams(serializeParams(q)),
                 SerializeError);
}

namespace {

/** tinyParams() with one edit applied. */
PirParams
tinyWith(const std::function<void(PirParams &)> &edit)
{
    PirParams p = tinyParams();
    edit(p);
    return p;
}

} // namespace

TEST(Serde, ParamsBoundWalk)
{
    // PirParams::validate() is the one list the decoder checks params
    // against. Each bound it shares with a constructor assert is walked
    // from its last admitted value to its first refused one: the
    // admitted set builds a ServerSession from its blob and ingests a
    // client's keys without aborting; the refused set throws from
    // validate() and from the decoder.
    struct Edge
    {
        const char *bound;
        PirParams admit;
        PirParams refuse;
    };
    const u64 q0 = kIvePrimes[0], q1 = kIvePrimes[1];
    const std::vector<u64> wide = findNttPrimes(61, 256, 3);
    // z^l around log2 Q = 108.07 of the default primes: 22 * 5 = 110
    // covers it, 27 * 4 = 108 does not. Two primes give log2 Q =
    // 54.002, just above 2^34's 34 + 20 bits of noise room.
    const double log_q = HeContext(tinyParams().he).ring().base.logQ();
    ASSERT_GE(22.0 * 5, log_q);
    ASSERT_LT(27.0 * 4, log_q);
    auto gadget = [](int log_z, int ell) {
        return tinyWith([=](PirParams &p) {
            p.he.logZKs = p.he.logZRgsw = log_z;
            p.he.ellKs = p.he.ellRgsw = ell;
        });
    };
    auto primes = [](std::vector<u64> qs, u64 plain) {
        return tinyWith([=](PirParams &p) {
            p.he.primes = qs;
            p.he.plainModulus = plain;
        });
    };
    auto geometry = [](u64 n, u64 d0, int d, int ell_rgsw) {
        return tinyWith([=](PirParams &p) {
            p.he.n = n;
            p.d0 = d0;
            p.d = d;
            p.he.ellRgsw = ell_rgsw;
        });
    };
    const u64 p32 = u64{1} << 32;
    const std::vector<Edge> edges = {
        {"gadget base 30 vs 31", gadget(30, 4), gadget(31, 4)},
        {"gadget length kMaxDigits vs one more",
         gadget(13, simd::kMaxDigits), gadget(13, simd::kMaxDigits + 1)},
        {"z^l covers Q vs not", gadget(22, 5), gadget(27, 4)},
        {"noise room", primes({q0, q1}, u64{1} << 34),
         primes({q0, q1}, u64{1} << 35)},
        {"composite modulus", primes({q0, q1}, p32),
         primes({q0, 134250495}, p32)},
        {"duplicate prime", primes({q0, q1}, p32), primes({q0, q0}, p32)},
        {"NTT-unfriendly prime", primes({q0, q1}, p32),
         primes({q0, 134217757}, p32)}, // prime, 29 mod 2n
        {"prime below 2^62 vs not", primes({q0, wide[0]}, p32),
         primes({q0, (u64{1} << 62) + 1}, p32)},
        {"128-bit headroom",
         tinyWith([&](PirParams &p) {
             p.he.primes = {wide[0], wide[1]};
             p.he.logZKs = p.he.logZRgsw = 30;
             p.he.ellKs = p.he.ellRgsw = 5;
         }),
         tinyWith([&](PirParams &p) {
             p.he.primes = wide;
             p.he.logZKs = p.he.logZRgsw = 30;
             p.he.ellKs = p.he.ellRgsw = 7;
         })},
        {"n = 4 vs 2", geometry(4, 4, 0, 8), geometry(2, 2, 0, 8)},
        {"usedLeaves() = n vs n + 1", geometry(64, 32, 1, 32),
         geometry(64, 32, 1, 33)},
    };
    for (const Edge &e : edges) {
        SCOPED_TRACE(e.bound);
        EXPECT_NO_THROW(e.admit.validate());
        ClientSession client(e.admit, 5);
        ServerSession server(client.paramsBlob());
        EXPECT_NO_THROW(server.ingestKeys(client.keyBlob()));

        EXPECT_THROW(e.refuse.validate(), std::invalid_argument);
        EXPECT_THROW(deserializeParams(serializeParams(e.refuse)),
                     SerializeError);
    }
}

TEST(Serde, ParamsMutationsDecodeOrThrow)
{
    // Fixed-seed 1-3 byte mutations of a small params blob: each must
    // decode or throw SerializeError (an abort or any other exception
    // fails the test), and each accepted blob whose database is small
    // enough to build here must build a ServerSession.
    PirParams base = tinyParams();
    base.he.n = 64;
    base.he.primes = {kIvePrimes.begin(), kIvePrimes.end()};
    const std::vector<u8> blob = serializeParams(base);
    constexpr u64 kMaxCoefficients = u64{1} << 16;
    Rng rng(2024);
    int accepted = 0, built = 0;
    for (int i = 0; i < 20000; ++i) {
        std::vector<u8> m = blob;
        for (u64 j = 0, bytes = 1 + rng.uniform(3); j < bytes; ++j)
            m[rng.uniform(m.size())] = static_cast<u8>(rng.uniform(256));
        PirParams p;
        try {
            p = deserializeParams(m);
        } catch (const SerializeError &) {
            continue;
        }
        ++accepted;
        if (static_cast<u128>(p.numEntries()) * p.planes * p.he.n >
            kMaxCoefficients)
            continue;
        ServerSession server(p);
        EXPECT_EQ(server.database().numEntries(), p.numEntries());
        ++built;
    }
    EXPECT_GT(accepted, built);
    EXPECT_GT(built, 0);
    std::printf("params mutations: %d accepted, %d built\n", accepted,
                built);
}

TEST(Serde, QueryRoundTripAndTruncationSweep)
{
    SerdeFixture f;
    PirClient client(f.ctx, f.params, 7);
    PirQuery q = client.makeQuery(5);
    std::vector<u8> blob = serializeQuery(f.ctx, q);

    PirQuery back = deserializeQuery(f.ctx, blob);
    EXPECT_EQ(back.ct.a, q.ct.a);
    EXPECT_EQ(back.ct.b, q.ct.b);
    EXPECT_EQ(serializeQuery(f.ctx, back), blob);

    for (size_t len = 0; len < blob.size(); len += 7) {
        EXPECT_THROW(
            deserializeQuery(f.ctx, std::span(blob.data(), len)),
            SerializeError)
            << "prefix length " << len;
    }
}

TEST(Serde, ResponseRoundTrip)
{
    SerdeFixture f;
    SecretKey sk(f.ctx, f.rng);
    PirResponse resp;
    for (int plane = 0; plane < 3; ++plane) {
        std::vector<u64> plain(f.ctx.n(), 17 + plane);
        resp.planes.push_back(encryptPlain(f.ctx, sk, f.rng, plain));
    }
    std::vector<u8> blob = serializeResponse(f.ctx, resp);
    PirResponse back = deserializeResponse(f.ctx, blob);
    ASSERT_EQ(back.planes.size(), 3u);
    for (int plane = 0; plane < 3; ++plane) {
        EXPECT_EQ(back.planes[plane].a, resp.planes[plane].a);
        EXPECT_EQ(back.planes[plane].b, resp.planes[plane].b);
    }
    EXPECT_EQ(serializeResponse(f.ctx, back), blob);
}

TEST(Serde, ResponseHostilePlaneCountThrows)
{
    SerdeFixture f;
    SecretKey sk(f.ctx, f.rng);
    PirResponse resp;
    resp.planes.push_back(
        encryptPlain(f.ctx, sk, f.rng, std::vector<u64>(f.ctx.n(), 1)));
    std::vector<u8> blob = serializeResponse(f.ctx, resp);

    // Plane count is the u64 right after the 6-byte header.
    std::vector<u8> huge = blob;
    for (int i = 0; i < 8; ++i)
        huge[6 + i] = 0xff;
    EXPECT_THROW(deserializeResponse(f.ctx, huge), SerializeError);

    std::vector<u8> zero = blob;
    for (int i = 0; i < 8; ++i)
        zero[6 + i] = 0;
    EXPECT_THROW(deserializeResponse(f.ctx, zero), SerializeError);

    std::vector<u8> two = blob;
    two[6] = 2; // claims one more ciphertext than the buffer holds
    EXPECT_THROW(deserializeResponse(f.ctx, two), SerializeError);
}

TEST(Serde, PartialResponseRoundTrip)
{
    SerdeFixture f;
    SecretKey sk(f.ctx, f.rng);
    PirPartialResponse partial;
    partial.shard = 2;
    partial.numShards = 4;
    for (int plane = 0; plane < 2; ++plane) {
        std::vector<u64> plain(f.ctx.n(), 23 + plane);
        partial.planes.push_back(
            encryptPlain(f.ctx, sk, f.rng, plain));
    }
    std::vector<u8> blob = serializePartialResponse(f.ctx, partial);
    PirPartialResponse back = deserializePartialResponse(f.ctx, blob);
    EXPECT_EQ(back.shard, 2u);
    EXPECT_EQ(back.numShards, 4u);
    ASSERT_EQ(back.planes.size(), 2u);
    for (int plane = 0; plane < 2; ++plane) {
        EXPECT_EQ(back.planes[plane].a, partial.planes[plane].a);
        EXPECT_EQ(back.planes[plane].b, partial.planes[plane].b);
    }
    // Canonical: re-serialization is byte-identical.
    EXPECT_EQ(serializePartialResponse(f.ctx, back), blob);
}

TEST(Serde, PartialResponseTruncationSweep)
{
    SerdeFixture f;
    SecretKey sk(f.ctx, f.rng);
    PirPartialResponse partial;
    partial.planes.push_back(
        encryptPlain(f.ctx, sk, f.rng, std::vector<u64>(f.ctx.n(), 1)));
    std::vector<u8> blob = serializePartialResponse(f.ctx, partial);
    for (size_t len = 0; len < blob.size(); len += 5) {
        EXPECT_THROW(deserializePartialResponse(
                         f.ctx, std::span(blob.data(), len)),
                     SerializeError)
            << "prefix length " << len;
    }
    std::vector<u8> trailing = blob;
    trailing.push_back(0);
    EXPECT_THROW(deserializePartialResponse(f.ctx, trailing),
                 SerializeError);
}

TEST(Serde, PartialResponseHeaderErrors)
{
    SerdeFixture f;
    SecretKey sk(f.ctx, f.rng);
    PirPartialResponse partial;
    partial.planes.push_back(
        encryptPlain(f.ctx, sk, f.rng, std::vector<u64>(f.ctx.n(), 9)));
    std::vector<u8> blob = serializePartialResponse(f.ctx, partial);

    std::vector<u8> bad_magic = blob;
    bad_magic[0] = 'X';
    EXPECT_NE(
        throwMessage([&] { deserializePartialResponse(f.ctx, bad_magic); })
            .find("magic"),
        std::string::npos);

    std::vector<u8> bad_version = blob;
    bad_version[4] = kWireVersion + 1;
    EXPECT_NE(throwMessage([&] {
                  deserializePartialResponse(f.ctx, bad_version);
              }).find("version"),
              std::string::npos);

    // A plain Response blob is a different kind and must be rejected.
    std::vector<u8> resp =
        serializeResponse(f.ctx, PirResponse{partial.planes});
    EXPECT_NE(
        throwMessage([&] { deserializePartialResponse(f.ctx, resp); })
            .find("kind"),
        std::string::npos);
}

TEST(Serde, PartialResponseHostileFieldsThrow)
{
    SerdeFixture f;
    SecretKey sk(f.ctx, f.rng);
    PirPartialResponse partial;
    partial.shard = 1;
    partial.numShards = 2;
    partial.planes.push_back(
        encryptPlain(f.ctx, sk, f.rng, std::vector<u64>(f.ctx.n(), 3)));
    std::vector<u8> blob = serializePartialResponse(f.ctx, partial);

    // Layout after the 6-byte header: shard u32, numShards u32,
    // plane count u64.
    auto patchU32 = [&](size_t off, u32 v) {
        std::vector<u8> out = blob;
        for (int i = 0; i < 4; ++i)
            out[off + i] = static_cast<u8>(v >> (8 * i));
        return out;
    };

    // Non-power-of-two shard count.
    EXPECT_NE(
        throwMessage([&] {
            deserializePartialResponse(f.ctx, patchU32(10, 3));
        }).find("shard count"),
        std::string::npos);
    // Shard count beyond any plausible deployment.
    EXPECT_THROW(deserializePartialResponse(
                     f.ctx, patchU32(10, u32{1} << 20)),
                 SerializeError);
    // Shard index >= shard count.
    EXPECT_NE(throwMessage([&] {
                  deserializePartialResponse(f.ctx, patchU32(6, 2));
              }).find("out of range"),
              std::string::npos);

    // Hostile plane counts: zero and huge.
    std::vector<u8> zero = blob;
    for (int i = 0; i < 8; ++i)
        zero[14 + i] = 0;
    EXPECT_THROW(deserializePartialResponse(f.ctx, zero),
                 SerializeError);
    std::vector<u8> huge = blob;
    for (int i = 0; i < 8; ++i)
        huge[14 + i] = 0xff;
    EXPECT_NE(
        throwMessage([&] { deserializePartialResponse(f.ctx, huge); })
            .find("count"),
        std::string::npos);
}

TEST(Serde, ResponsesRejectCoefficientDomainPlanes)
{
    // Every served ciphertext is in NTT form. A domain tag flipped to
    // coefficient form must throw from the decoder instead of reaching
    // the client's decode or the coordinator's fold. After the 6-byte
    // header a Response has its u64 plane count, so plane 0's a-side
    // tag is byte 14; a PartialResponse adds shard and count u32s, so
    // byte 22. The b-side tag follows one polynomial later.
    PirParams params = tinyParams(); // 2 columns
    ClientSession client(params, 11);
    ShardCoordinator coord(client.paramsBlob(), 2);
    coord.database().fill([&](u64 entry, int plane) {
        return std::vector<u64>(
            params.he.n, (entry * 3 + static_cast<u64>(plane)) &
                             (params.he.plainModulus - 1));
    });
    coord.ingestKeys(client.keyBlob());
    const HeContext &ctx = client.context();
    std::vector<u8> query = client.queryBlob(1);
    std::vector<u8> response = coord.answer(query);
    std::vector<std::vector<u8>> partials{coord.answerSlice(0, query),
                                          coord.answerSlice(1, query)};
    const u64 poly_bytes = 1 + ctx.ring().words() * 8;

    for (u64 side = 0; side < 2; ++side) {
        std::vector<u8> bad_response = response;
        ASSERT_EQ(bad_response[14 + side * poly_bytes], 1u);
        bad_response[14 + side * poly_bytes] = 0;
        EXPECT_NE(throwMessage([&] {
                      deserializeResponse(ctx, bad_response);
                  }).find("NTT form"),
                  std::string::npos);
        EXPECT_THROW((void)client.decodeResponse(bad_response),
                     SerializeError);

        std::vector<std::vector<u8>> bad_partials = partials;
        ASSERT_EQ(bad_partials[0][22 + side * poly_bytes], 1u);
        bad_partials[0][22 + side * poly_bytes] = 0;
        EXPECT_NE(throwMessage([&] {
                      deserializePartialResponse(ctx, bad_partials[0]);
                  }).find("NTT form"),
                  std::string::npos);
        EXPECT_THROW((void)coord.foldPartials(query, bad_partials),
                     SerializeError);
    }
    // The untouched blobs still decode and fold.
    EXPECT_EQ(coord.foldPartials(query, partials), response);
    EXPECT_EQ(client.decodeResponse(response)[0],
              std::vector<u64>(params.he.n, 3));
}

TEST(Serde, KeyUploadsRejectCoefficientDomainRows)
{
    // The serving path uses key rows as they are, so a key row tagged
    // with the coefficient domain must fail registration instead of
    // turning every later answer into a wrong record. Layout after the
    // 6-byte header and the u64 evk count: each evk is r and a row
    // count (u64s) then ellKs rows; RGSW(s) is ell and a row count then
    // 2 * ell rows. Each row's a-side domain tag is its first byte, the
    // b-side tag follows one polynomial later.
    PirParams params = tinyParams();
    ClientSession client(params, 11);
    const HeContext &ctx = client.context();
    const std::vector<u8> blob = client.keyBlob();
    const u64 poly_bytes = 1 + ctx.ring().words() * 8;
    const u64 row_bytes = 2 * poly_bytes;
    const u64 evk_bytes =
        16 + static_cast<u64>(params.he.ellKs) * row_bytes;
    const u64 num_evks = static_cast<u64>(params.expansionDepth());
    std::vector<u64> rows;
    for (u64 t = 0; t < num_evks; ++t)
        for (int k = 0; k < params.he.ellKs; ++k)
            rows.push_back(14 + t * evk_bytes + 16 + k * row_bytes);
    const u64 rgsw_rows = 14 + num_evks * evk_bytes + 16;
    for (int k = 0; k < 2 * params.he.ellRgsw; ++k)
        rows.push_back(rgsw_rows + k * row_bytes);
    ASSERT_EQ(rows.back() + row_bytes, blob.size());

    for (u64 row : rows) {
        for (u64 side = 0; side < 2; ++side) {
            std::vector<u8> bad = blob;
            ASSERT_EQ(bad[row + side * poly_bytes], 1u);
            bad[row + side * poly_bytes] = 0;
            EXPECT_NE(throwMessage([&] {
                          deserializePublicKeys(ctx, params, bad);
                      }).find("NTT form"),
                      std::string::npos)
                << "row at byte " << row << ", side " << side;
        }
    }

    // Byte 30 is the first evk row's a-side tag. Both ingest paths
    // reject the blob; the untouched blob still ingests.
    std::vector<u8> bad = blob;
    bad[30] = 0;
    ServerSession server(client.paramsBlob());
    EXPECT_THROW(server.ingestKeys(bad), SerializeError);
    ShardCoordinator coord(client.paramsBlob(), 2);
    EXPECT_THROW(coord.ingestKeys(bad), SerializeError);
    EXPECT_NO_THROW(server.ingestKeys(blob));
    EXPECT_NO_THROW(coord.ingestKeys(blob));
}

TEST(Serde, PublicKeysRoundTrip)
{
    SerdeFixture f;
    PirClient client(f.ctx, f.params, 11);
    PirPublicKeys keys = client.genPublicKeys();
    std::vector<u8> blob = serializePublicKeys(f.ctx, keys);

    PirPublicKeys back = deserializePublicKeys(f.ctx, f.params, blob);
    ASSERT_EQ(back.evks.size(), keys.evks.size());
    for (size_t i = 0; i < keys.evks.size(); ++i)
        EXPECT_EQ(back.evks[i].r, keys.evks[i].r);
    EXPECT_EQ(back.rgswOfSecret.ell, keys.rgswOfSecret.ell);
    // Canonical: re-serialization is byte-identical.
    EXPECT_EQ(serializePublicKeys(f.ctx, back), blob);
}

TEST(Serde, PublicKeysTruncationCoarseSweep)
{
    SerdeFixture f;
    PirClient client(f.ctx, f.params, 11);
    std::vector<u8> blob =
        serializePublicKeys(f.ctx, client.genPublicKeys());
    // The blob is ~750 KB; probe a coarse grid plus the first bytes.
    for (size_t len = 0; len < 64 && len < blob.size(); ++len) {
        EXPECT_THROW(deserializePublicKeys(
                         f.ctx, f.params, std::span(blob.data(), len)),
                     SerializeError);
    }
    for (size_t len = 0; len < blob.size(); len += blob.size() / 37) {
        EXPECT_THROW(deserializePublicKeys(
                         f.ctx, f.params, std::span(blob.data(), len)),
                     SerializeError);
    }
}

TEST(Serde, DeserializedQueryAnswersIdentically)
{
    // The wire format is lossless for the server pipeline: answering a
    // deserialized query matches answering the original object.
    SerdeFixture f;
    PirClient client(f.ctx, f.params, 3);
    Database db = Database::random(f.ctx, f.params, 4);
    PirServer server(f.ctx, f.params, &db,
                     std::make_shared<const PirPublicKeys>(
                         client.genPublicKeys()));

    PirQuery q = client.makeQuery(6);
    PirQuery q2 =
        deserializeQuery(f.ctx, serializeQuery(f.ctx, q));
    BfvCiphertext r1 = server.processAllPlanes(q)[0];
    BfvCiphertext r2 = server.processAllPlanes(q2)[0];
    EXPECT_EQ(r1.a, r2.a);
    EXPECT_EQ(r1.b, r2.b);
    EXPECT_EQ(client.decode(r1), db.entryCoeffs(6));
}

// ---------------------------------------------------------------------
// Session-protocol frames (src/net/): Hello / RegisterKeys / QueryRef /
// ErrorResponse. Nested blobs are opaque at this layer — the framing
// must round-trip them bit-exactly and reject hostile declared sizes
// before allocating.

TEST(Serde, HelloRoundTrip)
{
    PirHello h;
    h.clientId = 0xdeadbeefcafe1234ull;
    h.generation = 41;
    std::vector<u8> blob = serializeHello(h);
    PirHello back = deserializeHello(blob);
    EXPECT_EQ(back.clientId, h.clientId);
    EXPECT_EQ(back.generation, h.generation);
    EXPECT_EQ(serializeHello(back), blob);
    EXPECT_EQ(peekWireKind(blob), WireKind::Hello);
}

namespace {

/** The bytes a view names, as a vector EXPECT_EQ can print. */
std::vector<u8>
bytesOf(std::span<const u8> view)
{
    return {view.begin(), view.end()};
}

/** True when view lies inside blob: a decoder that copied fails. */
bool
pointsInto(std::span<const u8> view, std::span<const u8> blob)
{
    return view.data() >= blob.data() &&
           view.data() + view.size() <= blob.data() + blob.size();
}

} // namespace

TEST(Serde, RegisterKeysRoundTrip)
{
    SerdeFixture f;
    const std::vector<u8> params = serializeParams(f.params);
    // Contents are opaque here; any framed-looking bytes will do.
    std::vector<u8> keys = serializeParams(f.params);
    keys.push_back(0x5a);
    PirRegisterKeys reg;
    reg.clientId = 7;
    reg.paramsBlob = params;
    reg.keyBlob = keys;

    std::vector<u8> blob = serializeRegisterKeys(reg);
    PirRegisterKeys back = deserializeRegisterKeys(blob);
    EXPECT_EQ(back.clientId, reg.clientId);
    EXPECT_EQ(bytesOf(back.paramsBlob), params);
    EXPECT_EQ(bytesOf(back.keyBlob), keys);
    // Views into the frame, not copies of it.
    EXPECT_TRUE(pointsInto(back.paramsBlob, blob));
    EXPECT_TRUE(pointsInto(back.keyBlob, blob));
    EXPECT_EQ(serializeRegisterKeys(back), blob);
    EXPECT_EQ(peekWireKind(blob), WireKind::RegisterKeys);
}

TEST(Serde, QueryRefRoundTrip)
{
    SerdeFixture f;
    const std::vector<u8> query = serializeParams(f.params);
    PirQueryRef ref;
    ref.clientId = 9;
    ref.generation = 3;
    ref.queryBlob = query;

    std::vector<u8> blob = serializeQueryRef(ref);
    PirQueryRef back = deserializeQueryRef(blob);
    EXPECT_EQ(back.clientId, ref.clientId);
    EXPECT_EQ(back.generation, ref.generation);
    EXPECT_EQ(bytesOf(back.queryBlob), query);
    EXPECT_TRUE(pointsInto(back.queryBlob, blob));
    EXPECT_EQ(serializeQueryRef(back), blob);
    EXPECT_EQ(peekWireKind(blob), WireKind::QueryRef);
}

TEST(Serde, ErrorResponseRoundTrip)
{
    PirErrorResponse err;
    err.code = NetErrorCode::StaleGeneration;
    err.message = "generation 2 is stale; current is 5";
    std::vector<u8> blob = serializeErrorResponse(err);
    PirErrorResponse back = deserializeErrorResponse(blob);
    EXPECT_EQ(back.code, err.code);
    EXPECT_EQ(back.message, err.message);
    EXPECT_EQ(serializeErrorResponse(back), blob);
    EXPECT_EQ(peekWireKind(blob), WireKind::ErrorResponse);
}

TEST(Serde, ErrorResponseTruncatesOversizedMessage)
{
    // Encode-side cap: a pathological message must not bloat the error
    // frame past kMaxErrorMessageBytes.
    PirErrorResponse err;
    err.code = NetErrorCode::Internal;
    err.message.assign(4 * kMaxErrorMessageBytes, 'x');
    std::vector<u8> blob = serializeErrorResponse(err);
    PirErrorResponse back = deserializeErrorResponse(blob);
    EXPECT_EQ(back.message.size(), kMaxErrorMessageBytes);
}

TEST(Serde, ErrorResponseRejectsBadCodeAndHostileLength)
{
    PirErrorResponse err;
    err.code = NetErrorCode::BadFrame;
    err.message = "boom";
    std::vector<u8> blob = serializeErrorResponse(err);

    // Out-of-range code (layout: 6-byte header, then u32 code).
    std::vector<u8> bad_code = blob;
    bad_code[6] = 0xee;
    EXPECT_NE(throwMessage(
                  [&] { deserializeErrorResponse(bad_code); })
                  .find("error code"),
              std::string::npos);

    // Hostile declared message length (u64 at offset 10) must be
    // rejected by the count cap, not drive a huge allocation.
    std::vector<u8> huge = blob;
    for (size_t i = 0; i < 8; ++i)
        huge[10 + i] = 0xff;
    EXPECT_NE(throwMessage([&] { deserializeErrorResponse(huge); })
                  .find("count"),
              std::string::npos);
}

TEST(Serde, RegisterKeysRejectsHostileNestedLengths)
{
    SerdeFixture f;
    const std::vector<u8> params = serializeParams(f.params);
    PirRegisterKeys reg;
    reg.clientId = 1;
    reg.paramsBlob = params;
    reg.keyBlob = params;
    std::vector<u8> blob = serializeRegisterKeys(reg);

    // Layout: 6-byte header, u64 clientId, u64 params-blob length.
    // An absurd declared length must fail the count cap up front.
    std::vector<u8> huge = blob;
    for (size_t i = 0; i < 8; ++i)
        huge[14 + i] = 0xff;
    EXPECT_NE(throwMessage([&] { deserializeRegisterKeys(huge); })
                  .find("count"),
              std::string::npos);

    // A sub-header nested "blob" (too short to hold magic+version+
    // kind) is garbage by construction.
    std::vector<u8> tiny = blob;
    for (size_t i = 0; i < 8; ++i)
        tiny[14 + i] = 0;
    tiny[14] = 3;
    EXPECT_NE(throwMessage([&] { deserializeRegisterKeys(tiny); })
                  .find("too short"),
              std::string::npos);
}

TEST(Serde, SessionFrameTruncationSweeps)
{
    SerdeFixture f;
    const std::vector<u8> params = serializeParams(f.params);
    PirRegisterKeys reg;
    reg.clientId = 2;
    reg.paramsBlob = params;
    reg.keyBlob = params;
    PirQueryRef ref;
    ref.clientId = 2;
    ref.generation = 1;
    ref.queryBlob = params;
    PirErrorResponse err;
    err.code = NetErrorCode::Overloaded;
    err.message = "shed";

    PirHello h;
    std::vector<u8> hello = serializeHello(h);
    std::vector<u8> regb = serializeRegisterKeys(reg);
    std::vector<u8> refb = serializeQueryRef(ref);
    std::vector<u8> errb = serializeErrorResponse(err);

    for (size_t len = 0; len < hello.size(); ++len)
        EXPECT_THROW(
            deserializeHello(std::span(hello.data(), len)),
            SerializeError);
    for (size_t len = 0; len < regb.size(); ++len)
        EXPECT_THROW(
            deserializeRegisterKeys(std::span(regb.data(), len)),
            SerializeError);
    for (size_t len = 0; len < refb.size(); ++len)
        EXPECT_THROW(
            deserializeQueryRef(std::span(refb.data(), len)),
            SerializeError);
    for (size_t len = 0; len < errb.size(); ++len)
        EXPECT_THROW(
            deserializeErrorResponse(std::span(errb.data(), len)),
            SerializeError);
}

TEST(Serde, SessionFramesRejectTrailingBytesAndWrongKind)
{
    PirHello h;
    h.clientId = 5;
    std::vector<u8> blob = serializeHello(h);
    std::vector<u8> padded = blob;
    padded.push_back(0);
    EXPECT_THROW(deserializeHello(padded), SerializeError);
    // A Hello blob is not a QueryRef.
    EXPECT_THROW(deserializeQueryRef(blob), SerializeError);
}

TEST(Serde, PeekWireKindRejectsGarbage)
{
    PirHello h;
    std::vector<u8> blob = serializeHello(h);
    EXPECT_EQ(peekWireKind(blob), WireKind::Hello);

    // Too short to hold a header.
    std::vector<u8> stub(blob.begin(), blob.begin() + 5);
    EXPECT_THROW(peekWireKind(stub), SerializeError);

    // Unknown kind byte.
    std::vector<u8> bad_kind = blob;
    bad_kind[5] = 0x7f;
    EXPECT_NE(throwMessage([&] { peekWireKind(bad_kind); })
                  .find("unknown wire kind"),
              std::string::npos);

    // Wrong magic and wrong version still go through the canonical
    // header validation.
    std::vector<u8> bad_magic = blob;
    bad_magic[0] = 'X';
    EXPECT_THROW(peekWireKind(bad_magic), SerializeError);
    std::vector<u8> bad_version = blob;
    bad_version[4] = kWireVersion + 1;
    EXPECT_THROW(peekWireKind(bad_version), SerializeError);
}
