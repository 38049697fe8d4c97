#include "bfv/bfv.hh"

#include "common/logging.hh"
#include "poly/kernels.hh"

namespace ive {

BfvCiphertext
encryptZero(const HeContext &ctx, const SecretKey &sk, Rng &rng)
{
    const Ring &ring = ctx.ring();
    BfvCiphertext ct;
    ct.a = RnsPoly::uniform(ring, rng, Domain::Ntt);
    RnsPoly e = RnsPoly::noise(ring, rng);
    e.toNtt(ring);
    // b = -a*s + e
    ct.b = ct.a;
    ct.b.mulInPlace(ring, sk.sNtt());
    ct.b.negateInPlace(ring);
    ct.b.addInPlace(ring, e);
    return ct;
}

BfvCiphertext
encryptPayload(const HeContext &ctx, const SecretKey &sk, Rng &rng,
               const RnsPoly &payload_ntt)
{
    ive_assert(payload_ntt.isNtt());
    BfvCiphertext ct = encryptZero(ctx, sk, rng);
    ct.b.addInPlace(ctx.ring(), payload_ntt);
    return ct;
}

RnsPoly
encodePlain(const HeContext &ctx, std::span<const u64> plain_mod_p)
{
    const Ring &ring = ctx.ring();
    ive_assert(plain_mod_p.size() == ring.n);
    RnsPoly m(ring, Domain::Coeff);
    for (u64 i = 0; i < ring.n; ++i) {
        u64 v = plain_mod_p[i];
        ive_assert(v < ctx.plainModulus());
        for (int p = 0; p < ring.k(); ++p) {
            const Modulus &mod = ring.base.modulus(p);
            m.set(p, i, mod.mul(v % mod.value(), ctx.deltaRns()[p]));
        }
    }
    m.toNtt(ring);
    return m;
}

RnsPoly
liftPlain(const HeContext &ctx, std::span<const u64> plain_mod_p)
{
    const Ring &ring = ctx.ring();
    ive_assert(plain_mod_p.size() == ring.n);
    RnsPoly m(ring, Domain::Coeff);
    for (u64 i = 0; i < ring.n; ++i) {
        u64 v = plain_mod_p[i];
        for (int p = 0; p < ring.k(); ++p)
            m.set(p, i, v % ring.base.modulus(p).value());
    }
    m.toNtt(ring);
    return m;
}

BfvCiphertext
encryptPlain(const HeContext &ctx, const SecretKey &sk, Rng &rng,
             std::span<const u64> plain_mod_p)
{
    return encryptPayload(ctx, sk, rng, encodePlain(ctx, plain_mod_p));
}

RnsPoly
phaseOf(const HeContext &ctx, const SecretKey &sk, const BfvCiphertext &ct)
{
    const Ring &ring = ctx.ring();
    RnsPoly phase = ct.a;
    phase.mulInPlace(ring, sk.sNtt());
    phase.addInPlace(ring, ct.b);
    return phase;
}

std::vector<u64>
decrypt(const HeContext &ctx, const SecretKey &sk, const BfvCiphertext &ct)
{
    const Ring &ring = ctx.ring();
    RnsPoly phase = phaseOf(ctx, sk, ct);
    phase.fromNtt(ring);

    std::vector<u64> out(ring.n);
    std::vector<u64> res(ring.k());
    u128 delta = ctx.delta();
    for (u64 i = 0; i < ring.n; ++i) {
        phase.coeffResidues(i, res);
        u128 x = ring.base.fromRns(res);
        // m = round(x / Delta) mod P; x + Delta/2 stays < 2Q << 2^128.
        u128 m = (x + delta / 2) / delta;
        out[i] = static_cast<u64>(m % ctx.plainModulus());
    }
    return out;
}

void
addInPlace(const HeContext &ctx, BfvCiphertext &acc, const BfvCiphertext &x)
{
    acc.a.addInPlace(ctx.ring(), x.a);
    acc.b.addInPlace(ctx.ring(), x.b);
}

void
subInPlace(const HeContext &ctx, BfvCiphertext &acc, const BfvCiphertext &x)
{
    acc.a.subInPlace(ctx.ring(), x.a);
    acc.b.subInPlace(ctx.ring(), x.b);
}

void
plainMulAcc(const HeContext &ctx, BfvCiphertext &acc,
            const RnsPoly &plain_ntt, const BfvCiphertext &ct)
{
    acc.a.mulAccumulate(ctx.ring(), plain_ntt, ct.a);
    acc.b.mulAccumulate(ctx.ring(), plain_ntt, ct.b);
}

void
monomialMulInPlace(const HeContext &ctx, BfvCiphertext &ct,
                   const RnsPoly &monomial_ntt)
{
    ct.a.mulInPlace(ctx.ring(), monomial_ntt);
    ct.b.mulInPlace(ctx.ring(), monomial_ntt);
}

void
monomialMulInPlace(const HeContext &ctx, BfvCiphertext &ct,
                   const RnsPoly &monomial_ntt,
                   std::span<const u64> monomial_shoup)
{
    const Ring &ring = ctx.ring();
    ive_assert(ct.a.isNtt() && ct.b.isNtt() && monomial_ntt.isNtt());
    ive_assert(monomial_shoup.size() == ring.words());
    for (int p = 0; p < ring.k(); ++p) {
        u64 q = ring.base.modulus(p).value();
        const u64 *mono = monomial_ntt.residues(p).data();
        const u64 *shoup =
            monomial_shoup.data() + static_cast<u64>(p) * ring.n;
        kernels::mulShoupVec(ct.a.residues(p).data(), mono, shoup,
                             ring.n, q);
        kernels::mulShoupVec(ct.b.residues(p).data(), mono, shoup,
                             ring.n, q);
    }
}

void
saveBfvCiphertext(ByteWriter &w, const BfvCiphertext &ct)
{
    saveRnsPoly(w, ct.a);
    saveRnsPoly(w, ct.b);
}

BfvCiphertext
loadBfvCiphertext(ByteReader &r, const Ring &ring)
{
    BfvCiphertext ct;
    for (RnsPoly *side : {&ct.a, &ct.b}) {
        *side = loadRnsPoly(r, ring);
        if (!side->isNtt())
            r.fail("ciphertext side must be in NTT form");
    }
    return ct;
}

} // namespace ive
