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
    ive_assert(ct.a.isNtt() && ct.b.isNtt());
    ive_assert(out.a.isNtt() && out.b.isNtt());
    ive_assert(out.a.n() == ring.n && out.a.k() == ring.k());
    // Key rows arrive in NTT form (the key decoder rejects any other)
    // and the key-switch chains below use them directly.
    ive_assert(evk.rows.empty() || (evk.rows[0].a.isNtt() &&
                                    evk.rows[0].b.isNtt()));

    const u64 n = ring.n;
    const int nk = ring.k();
    const AutomorphismMaps &maps = ctx.automorphismMaps(evk.r);

    // Phase 1: each (side, plane) pair is independent. The a side
    // needs coefficient form for the gadget decomposition: copy the
    // plane, inverse-transform, permute. The b side stays in NTT form,
    // where sigma_r is a slot permutation: it lands straight in out.b,
    // the key-switch chain's addend. That makes 4k + 4k * ellKs
    // prime-NTTs per Subs (40 at the bench shape).
    PolyLease tmp_a(ws, ring, Domain::Coeff);
    PolyLease a_rot(ws, ring, Domain::Coeff);
    parallelFor(0, 2 * static_cast<u64>(nk), [&](u64 t) {
        const int p = static_cast<int>(t % nk);
        const u64 q = ring.base.modulus(p).value();
        if (t >= static_cast<u64>(nk)) {
            kernels::applyCoeffMapVec(out.b.residues(p).data(),
                                      ct.b.residues(p).data(),
                                      maps.ntt.data(), n, q);
            return;
        }
        std::span<const u64> s = ct.a.residues(p);
        std::span<u64> d = tmp_a->residues(p);
        std::copy(s.begin(), s.end(), d.begin());
        ring.ntt[static_cast<size_t>(p)].inverse(d);
        kernels::applyCoeffMapVec(a_rot->residues(p).data(), d.data(),
                                  maps.coeff.data(), n, q);
    });

    // Phase 2: key switch sigma_r(a) back under s: out.a =
    // sum_k d_k * evk_k.a, out.b = sigma_r(b) + sum_k d_k * evk_k.b,
    // with the ellKs-long chains reduced once for fused primes.
    PolyVecLease digits(ws, ring, Domain::Coeff, ell);
    decomposePolyInto(ctx, gadget, *a_rot, *digits);

    // Phase 3: per-plane tasks, each running both sides' key-switch
    // chains for its plane in the exact serial link order (k
    // ascending), accumulating in the output planes themselves. A pair
    // link reads each digit plane once for both sides; the per-plane
    // order never changes, so outputs are byte-identical at any thread
    // count. out.a's first link stores; out.b already holds
    // sigma_r(b), the chain's addend.
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
            kernels::chainMacPair(mod, links, n, oa, ob, pd,
                                  row.a.residues(p).data(),
                                  row.b.residues(p).data(), k == 0,
                                  false);
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
