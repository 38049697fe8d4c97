/**
 * @file
 * Internal linkage between the per-ISA translation units.
 *
 * Each backend TU defines one Kernels table; simd.cc resolves among
 * them. The scalar entry points are also declared here individually so
 * the vector TUs can tail-call them for loop remainders and for
 * modulus classes outside their fast path (e.g. >= 2^32 primes in the
 * 32-bit product kernels) — keeping the "identical canonical output"
 * contract trivially true on every path. Not installed API: only the
 * simd TUs include this, and test_contracts, for the scalar entries
 * that no longer sit in a table.
 */

#ifndef IVE_POLY_SIMD_BACKENDS_HH
#define IVE_POLY_SIMD_BACKENDS_HH

#include "poly/kernels.hh"
#include "poly/simd/simd.hh"

namespace ive::simd {

// --- shared scalar butterfly blocks ----------------------------------
//
// The scalar and AVX2 transforms run their sub-vector-width stages on
// these; one definition keeps the lazy-range invariants in one place
// across every TU.

/** One forward block: inputs < 4q, u drops to [0, 2q), the Shoup
 *  product lands in [0, 2q), so both outputs stay < 4q. */
inline void
scalarFwdButterflyBlock(u64 *x, u64 *y, u64 t, u64 w, u64 ws, u64 q)
{
    const u64 two_q = 2 * q;
    for (u64 j = 0; j < t; ++j) {
        u64 u = x[j];
        if (u >= two_q)
            u -= two_q;
        u64 v = kernels::mulShoupLazy(y[j], w, ws, q);
        x[j] = u + v;
        y[j] = u + two_q - v;
    }
}

/** One inverse block: inputs < 2q, both outputs return to [0, 2q). */
inline void
scalarInvButterflyBlock(u64 *x, u64 *y, u64 t, u64 w, u64 ws, u64 q)
{
    const u64 two_q = 2 * q;
    for (u64 j = 0; j < t; ++j) {
        u64 u = x[j];
        u64 v = y[j];
        u64 s = u + v;
        x[j] = s >= two_q ? s - two_q : s;
        y[j] = kernels::mulShoupLazy(u + two_q - v, w, ws, q);
    }
}

extern const Kernels kScalarKernels;
#ifdef IVE_SIMD_HAVE_AVX2
extern const Kernels kAvx2Kernels;
#endif
#ifdef IVE_SIMD_HAVE_AVX512
extern const Kernels kAvx512Kernels;
#endif

#ifdef IVE_SIMD_HAVE_AVX512IFMA
namespace ifma {
/**
 * 52-bit-datapath butterflies (vpmadd52): valid when q < 2^50 —
 * NttTable only provides x2^52 companion twiddles below that bound, so
 * a non-null NttTwiddles::twShoup52 implies validity.
 */
void nttForwardLazy(u64 *a, u64 n, const Modulus &mod,
                    const NttTwiddles &t);
void nttInverseLazy(u64 *a, u64 n, const Modulus &mod,
                    const NttTwiddles &t, u64 n_inv, u64 n_inv_shoup,
                    u64 n_inv_shoup52);
} // namespace ifma
#endif

namespace scalar {

void nttForwardLazy(u64 *a, u64 n, const Modulus &mod,
                    const NttTwiddles &t);
void nttInverseLazy(u64 *a, u64 n, const Modulus &mod,
                    const NttTwiddles &t, u64 n_inv, u64 n_inv_shoup,
                    u64 n_inv_shoup52);
void addVec(u64 *dst, const u64 *src, u64 n, u64 q);
void subVec(u64 *dst, const u64 *src, u64 n, u64 q);
void negVec(u64 *dst, u64 n, u64 q);
void mulVec(u64 *dst, const u64 *src, u64 n, const Modulus &mod);
void mulShoupVec(u64 *dst, const u64 *b, const u64 *b_shoup, u64 n,
                 u64 q);
void canonicalizeVec(u64 *a, u64 n, u64 q);
void mulAccVec(u64 *dst, const u64 *a, const u64 *b, u64 n,
               const Modulus &mod);
/** One plane of macChainPair: the reference the vector pairs are
 *  tested against, and the checked build's no-wrap audit. */
void macChainLink(u64 *acc, const u64 *a, const u64 *b, u64 n,
                  bool store);
void macChainPair(u64 *acc0, u64 *acc1, const u64 *a, const u64 *b0,
                  const u64 *b1, u64 n, bool store0, bool store1);
void macChainReduce(u64 *acc, u64 n, const Modulus &mod);
void macAccumulate(u128 *acc, const u64 *a, const u64 *b, u64 n);
void decomposeDigits(const DigitPlan &plan, const u64 *src, u64 stride,
                     u64 from, u64 to, u64 *const *dst);
void applyCoeffMap(u64 *dst, const u64 *src, const u64 *map, u64 n,
                   u64 q);

} // namespace scalar

} // namespace ive::simd

#endif // IVE_POLY_SIMD_BACKENDS_HH
