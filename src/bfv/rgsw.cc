#include "bfv/rgsw.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "poly/kernels.hh"

namespace ive {

std::vector<RnsPoly>
decomposePoly(const HeContext &ctx, const Gadget &gadget,
              const RnsPoly &poly_coeff)
{
    const Ring &ring = ctx.ring();
    int ell = gadget.ell();
    std::vector<RnsPoly> digits;
    digits.reserve(ell);
    for (int k = 0; k < ell; ++k)
        digits.emplace_back(ring, Domain::Coeff);
    decomposePolyInto(ctx, gadget, poly_coeff, digits);
    return digits;
}

void
decomposePolyInto(const HeContext &ctx, const Gadget &gadget,
                  const RnsPoly &poly_coeff, std::span<RnsPoly> digits)
{
    const Ring &ring = ctx.ring();
    ive_assert(!poly_coeff.isNtt());
    int ell = gadget.ell();
    ive_assert(static_cast<int>(digits.size()) == ell);
    for (const RnsPoly &d : digits)
        ive_assert(!d.isNtt() && d.n() == ring.n);

    const int nk = ring.k();

    // Coefficient ranges are independent (each i writes only slot i of
    // every digit plane), so the iCRT + digit sweep chunks across the
    // pool; the per-coefficient work is a few nanoseconds, hence the
    // coarse grain. Nested calls (RowSel columns, fold pairs on
    // workers) run the whole range inline. The kernel writes each
    // digit into all k planes, so the transforms below follow with no
    // replicate pass in between.
    const simd::DigitPlan plan = gadget.digitPlan();
    u64 *dst[simd::kMaxDigits];
    for (int k = 0; k < ell; ++k)
        dst[k] = digits[static_cast<size_t>(k)].residues(0).data();
    const u64 *src = poly_coeff.residues(0).data();
    const simd::Kernels &kern = simd::active();
    parallelForChunked(0, ring.n, 512, [&](u64 from, u64 to) {
        kern.decomposeDigits(plan, src, ring.n, from, to, dst);
    });
    // Then every (digit, plane) pair transforms independently. The
    // per-plane transforms replace digits[k].toNtt(ring); the
    // coordinating thread retags once all planes are NTT form.
    parallelFor(0, static_cast<u64>(ell) * nk, [&](u64 t) {
        int k = static_cast<int>(t / nk);
        int p = static_cast<int>(t % nk);
        ring.ntt[static_cast<size_t>(p)].forward(
            digits[k].residues(p));
    });
    for (RnsPoly &d : digits)
        PolyWorkspace::retag(d, Domain::Ntt);
}

namespace {

/** Adds m*z^k (m given in NTT form) to one polynomial of a row. */
void
addGadgetTerm(const HeContext &ctx, const Gadget &gadget, int k,
              const RnsPoly &m_ntt, RnsPoly &target)
{
    RnsPoly term = m_ntt;
    term.scalarMulInPlace(ctx.ring(), gadget.zPowResidues(k));
    target.addInPlace(ctx.ring(), term);
}

} // namespace

RgswCiphertext
encryptRgswPoly(const HeContext &ctx, const SecretKey &sk, Rng &rng,
                const RnsPoly &m_ntt)
{
    ive_assert(m_ntt.isNtt());
    const Gadget &gadget = ctx.gadgetRgsw();
    int ell = gadget.ell();

    RgswCiphertext out;
    out.ell = ell;
    out.rows.reserve(2 * ell);
    for (int k = 0; k < ell; ++k) {
        BfvCiphertext row = encryptZero(ctx, sk, rng);
        addGadgetTerm(ctx, gadget, k, m_ntt, row.a);
        out.rows.push_back(std::move(row));
    }
    for (int k = 0; k < ell; ++k) {
        BfvCiphertext row = encryptZero(ctx, sk, rng);
        addGadgetTerm(ctx, gadget, k, m_ntt, row.b);
        out.rows.push_back(std::move(row));
    }
    return out;
}

RgswCiphertext
encryptRgswConst(const HeContext &ctx, const SecretKey &sk, Rng &rng,
                 u64 m)
{
    const Ring &ring = ctx.ring();
    RnsPoly m_poly(ring, Domain::Coeff);
    std::vector<u64> res(ring.k());
    ring.base.toRns(m, res);
    for (int p = 0; p < ring.k(); ++p)
        m_poly.set(p, 0, res[p]);
    m_poly.toNtt(ring);
    return encryptRgswPoly(ctx, sk, rng, m_poly);
}

BfvCiphertext
externalProduct(const HeContext &ctx, const RgswCiphertext &rgsw,
                const BfvCiphertext &ct)
{
    const Ring &ring = ctx.ring();
    BfvCiphertext out;
    out.a = RnsPoly(ring, Domain::Ntt);
    out.b = RnsPoly(ring, Domain::Ntt);
    externalProductInto(ctx, rgsw, ct, out, PolyWorkspace::local());
    return out;
}

void
externalProductInto(const HeContext &ctx, const RgswCiphertext &rgsw,
                    const BfvCiphertext &ct, BfvCiphertext &out,
                    PolyWorkspace &ws)
{
    const Ring &ring = ctx.ring();
    const Gadget &gadget = ctx.gadgetRgsw();
    int ell = rgsw.ell;
    ive_assert(static_cast<int>(rgsw.rows.size()) == 2 * ell);
    ive_assert(gadget.ell() == ell);
    ive_assert(&ct != &out);
    ive_assert(out.a.isNtt() && out.b.isNtt());
    ive_assert(out.a.n() == ring.n && out.a.k() == ring.k());

    const u64 n = ring.n;
    const int nk = ring.k();

    PolyLease a_coeff(ws, ring, Domain::Coeff);
    PolyLease b_coeff(ws, ring, Domain::Coeff);
    // Phase 1: each (side, plane) pair copies its residue plane and
    // inverse-transforms it independently (2k tasks). When a fold pair
    // or RowSel column already owns a worker this runs inline, same as
    // the old a_coeff/b_coeff fromNtt path.
    {
        const RnsPoly *src[2] = {&ct.a, &ct.b};
        RnsPoly *dst[2] = {&*a_coeff, &*b_coeff};
        parallelFor(0, 2 * static_cast<u64>(nk), [&](u64 t) {
            int side = static_cast<int>(t / nk);
            int p = static_cast<int>(t % nk);
            std::span<const u64> s = src[side]->residues(p);
            std::span<u64> d = dst[side]->residues(p);
            std::copy(s.begin(), s.end(), d.begin());
            ring.ntt[static_cast<size_t>(p)].inverse(d);
        });
    }

    // Phase 2: the two gadget decompositions (internally parallel over
    // coefficient chunks and (digit, plane) transforms).
    PolyVecLease da(ws, ring, Domain::Coeff, ell);
    PolyVecLease db(ws, ring, Domain::Coeff, ell);
    decomposePolyInto(ctx, gadget, *a_coeff, *da);
    decomposePolyInto(ctx, gadget, *b_coeff, *db);

    // Phase 3: the 2x2l matrix-vector product — per-plane tasks, each
    // running both sides' MAC chains for its plane in the exact serial
    // per-plane link order (k ascending; da into a and b, then db into
    // a and b), accumulating in the output planes themselves, with the
    // fused/strict dispatch centralized in kernels::chainMac*. Each
    // pair link reads its digit plane once for both sides; outputs are
    // byte-identical at any thread count because the per-plane order
    // never changes.
    const u64 links = 2 * static_cast<u64>(ell);
    parallelFor(0, static_cast<u64>(nk), [&](u64 t) {
        int p = static_cast<int>(t);
        const Modulus &mod = ring.base.modulus(p);
        u64 *oa = out.a.residues(p).data();
        u64 *ob = out.b.residues(p).data();
        for (int k = 0; k < ell; ++k) {
            const u64 *pa =
                da[static_cast<size_t>(k)].residues(p).data();
            const u64 *pb =
                db[static_cast<size_t>(k)].residues(p).data();
            const BfvCiphertext &row_a =
                rgsw.rows[static_cast<size_t>(k)];
            const BfvCiphertext &row_b =
                rgsw.rows[static_cast<size_t>(ell + k)];
            kernels::chainMacPair(mod, links, n, oa, ob, pa,
                                  row_a.a.residues(p).data(),
                                  row_a.b.residues(p).data(), k == 0,
                                  k == 0);
            kernels::chainMacPair(mod, links, n, oa, ob, pb,
                                  row_b.a.residues(p).data(),
                                  row_b.b.residues(p).data(), false,
                                  false);
        }
        kernels::chainMacFinish(mod, links, n, oa);
        kernels::chainMacFinish(mod, links, n, ob);
    });
}

void
saveRgswCiphertext(ByteWriter &w, const RgswCiphertext &rgsw)
{
    w.writeU64(static_cast<u64>(rgsw.ell));
    w.writeU64(rgsw.rows.size());
    for (const BfvCiphertext &row : rgsw.rows)
        saveBfvCiphertext(w, row);
}

RgswCiphertext
loadRgswCiphertext(ByteReader &r, const HeContext &ctx)
{
    RgswCiphertext rgsw;
    u64 ell = r.readU64();
    if (ell != static_cast<u64>(ctx.gadgetRgsw().ell()))
        r.fail(strprintf("rgsw ell %llu does not match context ell %d",
                         static_cast<unsigned long long>(ell),
                         ctx.gadgetRgsw().ell()));
    rgsw.ell = static_cast<int>(ell);
    u64 rows = r.readCount(2 * ell, bfvCiphertextWireBytes(ctx.ring()),
                           "rgsw row");
    if (rows != 2 * ell)
        r.fail(strprintf("rgsw has %llu rows, expected %llu",
                         static_cast<unsigned long long>(rows),
                         static_cast<unsigned long long>(2 * ell)));
    for (u64 k = 0; k < rows; ++k)
        rgsw.rows.push_back(loadBfvCiphertext(r, ctx.ring()));
    return rgsw;
}

} // namespace ive
