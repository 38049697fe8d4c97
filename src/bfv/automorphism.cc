#include "bfv/automorphism.hh"

#include "bfv/rgsw.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "poly/kernels.hh"

namespace ive {

EvkKey
genEvk(const HeContext &ctx, const SecretKey &sk, Rng &rng, u64 r)
{
    const Ring &ring = ctx.ring();
    const Gadget &gadget = ctx.gadgetKs();
    ive_assert(r % 2 == 1 && r < 2 * ring.n);

    RnsPoly s_rot = sk.sCoeff().automorphism(ring, r);
    s_rot.toNtt(ring);

    EvkKey evk;
    evk.r = r;
    evk.rows.reserve(gadget.ell());
    for (int k = 0; k < gadget.ell(); ++k) {
        BfvCiphertext row = encryptZero(ctx, sk, rng);
        RnsPoly term = s_rot;
        term.scalarMulInPlace(ring, gadget.zPowResidues(k));
        row.b.addInPlace(ring, term);
        evk.rows.push_back(std::move(row));
    }
    return evk;
}

BfvCiphertext
subs(const HeContext &ctx, const BfvCiphertext &ct, const EvkKey &evk)
{
    const Ring &ring = ctx.ring();
    BfvCiphertext out;
    out.a = RnsPoly(ring, Domain::Ntt);
    out.b = RnsPoly(ring, Domain::Ntt);
    subsInto(ctx, ct, evk, out, PolyWorkspace::local());
    return out;
}

void
subsInto(const HeContext &ctx, const BfvCiphertext &ct, const EvkKey &evk,
         BfvCiphertext &out, PolyWorkspace &ws)
{
    const Ring &ring = ctx.ring();
    const Gadget &gadget = ctx.gadgetKs();
    int ell = gadget.ell();
    ive_assert(&ct != &out);
    ive_assert(out.a.isNtt());
    ive_assert(out.a.n() == ring.n && out.a.k() == ring.k());
    // Key rows arrive in NTT form (the key decoder rejects any other)
    // and the key-switch chains below use them directly.
    ive_assert(evk.rows.empty() || (evk.rows[0].a.isNtt() &&
                                    evk.rows[0].b.isNtt()));

    const u64 n = ring.n;
    const int nk = ring.k();

    // Automorphism on both polynomials (coefficient domain); the
    // index/flip map depends only on (r, n), so build it once and
    // apply it to both.
    WordLease map(ws, n);
    RnsPoly::automorphismMap(n, evk.r, map.span());

    // Phase 1: each (side, plane) pair is independent — copy the
    // plane, inverse-transform, permute; the b side also transforms
    // sigma_r(b) straight back to NTT form, since out.b is the key-
    // switch chain's addend. Two scratch polys (instead of the old
    // reused tmp) keep the sides write-disjoint.
    PolyLease tmp_a(ws, ring, Domain::Coeff);
    PolyLease tmp_b(ws, ring, Domain::Coeff);
    PolyLease a_rot(ws, ring, Domain::Coeff);
    {
        const RnsPoly *src[2] = {&ct.a, &ct.b};
        RnsPoly *scratch[2] = {&*tmp_a, &*tmp_b};
        RnsPoly *rot[2] = {&*a_rot, &out.b};
        const u64 *map_data = map.data();
        parallelFor(0, 2 * static_cast<u64>(nk), [&](u64 t) {
            int side = static_cast<int>(t / nk);
            int p = static_cast<int>(t % nk);
            const u64 q = ring.base.modulus(p).value();
            std::span<const u64> s = src[side]->residues(p);
            std::span<u64> d = scratch[side]->residues(p);
            std::copy(s.begin(), s.end(), d.begin());
            ring.ntt[static_cast<size_t>(p)].inverse(d);
            u64 *r = rot[side]->residues(p).data();
            kernels::applyCoeffMapVec(r, d.data(), map_data, n, q);
            if (side == 1)
                ring.ntt[static_cast<size_t>(p)].forward(
                    rot[side]->residues(p));
        });
    }

    // Phase 2: key switch sigma_r(a) back under s: out.a =
    // sum_k d_k * evk_k.a, out.b = sigma_r(b) + sum_k d_k * evk_k.b,
    // with the ellKs-long chains reduced once for fused primes.
    PolyVecLease digits(ws, ring, Domain::Coeff, ell);
    decomposePolyInto(ctx, gadget, *a_rot, *digits);

    // Phase 3: per-plane tasks, each running both sides' key-switch
    // chains for its plane in the exact serial link order (k
    // ascending, a then b per digit), accumulating in the output planes
    // themselves. One task per plane keeps each digit plane cache-hot
    // across its two uses; the per-plane order never changes, so
    // outputs are byte-identical at any thread count. out.a's first
    // link stores; out.b already holds sigma_r(b), the chain's addend.
    const u64 links = static_cast<u64>(ell);
    parallelFor(0, static_cast<u64>(nk), [&](u64 t) {
        int p = static_cast<int>(t);
        const Modulus &mod = ring.base.modulus(p);
        u64 *oa = out.a.residues(p).data();
        u64 *ob = out.b.residues(p).data();
        for (int k = 0; k < ell; ++k) {
            const u64 *pd =
                digits[static_cast<size_t>(k)].residues(p).data();
            const BfvCiphertext &row = evk.rows[static_cast<size_t>(k)];
            kernels::chainMacAcc(mod, links, n, oa, pd,
                                 row.a.residues(p).data(), k == 0);
            kernels::chainMacAcc(mod, links, n, ob, pd,
                                 row.b.residues(p).data(), false);
        }
        kernels::chainMacFinish(mod, links, n, oa);
        kernels::chainMacFinish(mod, links, n, ob);
    });
}

void
saveEvkKey(ByteWriter &w, const EvkKey &evk)
{
    w.writeU64(evk.r);
    w.writeU64(evk.rows.size());
    for (const BfvCiphertext &row : evk.rows)
        saveBfvCiphertext(w, row);
}

EvkKey
loadEvkKey(ByteReader &r, const HeContext &ctx)
{
    EvkKey evk;
    evk.r = r.readU64();
    if (evk.r % 2 == 0 || evk.r >= 2 * ctx.n())
        r.fail(strprintf("invalid evk rotation %llu",
                         static_cast<unsigned long long>(evk.r)));
    u64 rows = r.readCount(static_cast<u64>(ctx.config().ellKs),
                           bfvCiphertextWireBytes(ctx.ring()),
                           "evk row");
    if (rows != static_cast<u64>(ctx.config().ellKs))
        r.fail(strprintf("evk has %llu rows, context expects %d",
                         static_cast<unsigned long long>(rows),
                         ctx.config().ellKs));
    for (u64 k = 0; k < rows; ++k)
        evk.rows.push_back(loadBfvCiphertext(r, ctx.ring()));
    return evk;
}

} // namespace ive
