/**
 * @file
 * Kernel entry points for the polynomial hot path.
 *
 * IVE's hardware argument (paper SIV) is that one versatile datapath
 * serves every hot kernel — NTT butterflies, dyadic MACs, automorphism
 * permutations; our software analogue routes all of them through one
 * runtime-resolved ISA dispatch table (poly/simd/simd.hh): scalar,
 * AVX2, or AVX-512 (+IFMA butterflies), selected once per process by
 * cpuid or the IVE_FORCE_ISA override. Every backend produces
 * bit-identical canonical outputs, so responses stay byte-identical to
 * the committed goldens under any backend.
 *
 * Two value-range families survive from the lazy-reduction redesign:
 *
 *  - Lazy NTT butterflies: intermediate values live in Harvey's
 *    [0, 4q) (forward) / [0, 2q) (inverse), or on the AVX-512 entries
 *    below simd::fwdUnreducedBound / invUnreducedBound with no
 *    per-stage subtract, and are canonicalized once at the end instead
 *    of per butterfly. Dispatched via NttTable::forward/inverse, not
 *    this header.
 *
 *  - Fused dyadic multiply-accumulate: when q < 2^32 each product of
 *    canonical residues fits in 64 bits, and a chain of L products
 *    plus one canonical addend fits a u64 accumulator while
 *    (q - 1)^2 * L + q < 2^64 (about 960 links for the 28-bit paper
 *    primes, against D0-long RowSel segments, l-long key-switch sums
 *    and 2l-long external-product sums). Barrett reduction is then
 *    paid once per output word per *chain*. Longer chains and larger
 *    test primes fall back to the strict per-product kernels.
 *
 * The strict NTT reference transforms are kept inline here for
 * differential tests and before/after microbenchmarks; they are not
 * dispatched.
 *
 * This header depends only on modmath and the simd table, so the ntt
 * module can use it without a link cycle.
 */

#ifndef IVE_POLY_KERNELS_HH
#define IVE_POLY_KERNELS_HH

#include <span>

#include "common/contracts.hh"
#include "common/types.hh"
#include "modmath/modulus.hh"
#include "modmath/primes.hh"
#include "poly/simd/simd.hh"

namespace ive::kernels {

// --- compile-time bound proofs ---------------------------------------
//
// The runtime halves of these contracts are audited by the scalar
// backend under -DIVE_CHECK_RANGES=ON (common/contracts.hh); here the
// compile-time-derivable parts are pinned against kMaxModulus
// (modmath/modulus.hh) and the simd datapath bounds (poly/simd/simd.hh).

// Forward lazy intermediates reach 4q and must fit one 64-bit word.
static_assert(static_cast<u128>(4) * (kMaxModulus - 1) <= ~u64{0},
              "forward-NTT lazy bound: 4q must fit u64");
// mulShoupLazy's [0, 2q) output bound holds for any q < 2^63.
static_assert(static_cast<u128>(2) * (kMaxModulus - 1) < (u128{1} << 63),
              "lazy Shoup product needs q < 2^63");
// The fused-MAC engage bound must stay inside the general modulus
// bound, so fusedMacOk's dispatch is a pure refinement.
static_assert(simd::kFusedMacModulusBound <= kMaxModulus,
              "fused-MAC bound exceeds the modulus bound");
// The IFMA butterfly bound likewise refines the general bound.
static_assert(simd::kIfmaModulusBound <= kMaxModulus,
              "IFMA bound exceeds the modulus bound");

/**
 * Shoup product without the final conditional subtract: returns
 * a * b - floor(a * b_shoup / 2^64) * q, which lies in [0, 2q) for ANY
 * 64-bit a, given b < q, b_shoup = floor(b * 2^64 / q), and q < 2^63.
 * The lazy butterflies feed it values up to 4q and rely on the [0, 2q)
 * output bound.
 */
inline u64
mulShoupLazy(u64 a, u64 b, u64 b_shoup, u64 q)
{
    u64 approx = static_cast<u64>((static_cast<u128>(a) * b_shoup) >> 64);
    return a * b - approx * q;
}

// --- strict negacyclic NTT reference ---------------------------------
//
// Twiddle tables are in bit-reversed order with Shoup companions,
// exactly as NttTable stores them; a.size() is the (power-of-two) ring
// degree. The dispatched lazy transforms compute identical outputs.

/** Strict reference forward transform (canonical after each butterfly). */
inline void
nttForwardStrict(std::span<u64> a, const Modulus &mod,
                 std::span<const u64> tw, std::span<const u64> tw_shoup)
{
    const u64 q = mod.value();
    const u64 n = a.size();
    u64 t = n;
    for (u64 m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (u64 i = 0; i < m; ++i) {
            u64 j1 = 2 * i * t;
            u64 w = tw[m + i];
            u64 ws = tw_shoup[m + i];
            for (u64 j = j1; j < j1 + t; ++j) {
                u64 x = a[j];
                u64 y = mod.mulShoup(a[j + t], w, ws);
                u64 s = x + y;
                a[j] = s >= q ? s - q : s;
                a[j + t] = x >= y ? x - y : x + q - y;
            }
        }
    }
}

/** Strict reference inverse transform. */
inline void
nttInverseStrict(std::span<u64> a, const Modulus &mod,
                 std::span<const u64> tw, std::span<const u64> tw_shoup,
                 u64 n_inv, u64 n_inv_shoup)
{
    const u64 q = mod.value();
    const u64 n = a.size();
    u64 t = 1;
    for (u64 m = n; m > 1; m >>= 1) {
        u64 j1 = 0;
        u64 h = m >> 1;
        for (u64 i = 0; i < h; ++i) {
            u64 w = tw[h + i];
            u64 ws = tw_shoup[h + i];
            for (u64 j = j1; j < j1 + t; ++j) {
                u64 x = a[j];
                u64 y = a[j + t];
                u64 s = x + y;
                a[j] = s >= q ? s - q : s;
                u64 d = x >= y ? x - y : x + q - y;
                a[j + t] = mod.mulShoup(d, w, ws);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (u64 j = 0; j < n; ++j)
        a[j] = mod.mulShoup(a[j], n_inv, n_inv_shoup);
}

// --- element-wise vector kernels (canonical in, canonical out) -------
//
// Thin forwarders into the active ISA table; see simd.hh for the
// per-kernel contracts.

inline void
addVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    simd::active().addVec(dst, src, n, q);
}

inline void
subVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    simd::active().subVec(dst, src, n, q);
}

inline void
negVec(u64 *dst, u64 n, u64 q)
{
    simd::active().negVec(dst, n, q);
}

inline void
mulVec(u64 *dst, const u64 *src, u64 n, const Modulus &mod)
{
    simd::active().mulVec(dst, src, n, mod);
}

/** dst[i] = dst[i] * b[i] mod q with precomputed x2^64 companions. */
inline void
mulShoupVec(u64 *dst, const u64 *b, const u64 *b_shoup, u64 n, u64 q)
{
    simd::active().mulShoupVec(dst, b, b_shoup, n, q);
}

/** Strict dst[i] += a[i] * b[i] mod q (one reduction per element). */
inline void
mulAccVec(u64 *dst, const u64 *a, const u64 *b, u64 n, const Modulus &mod)
{
    simd::active().mulAccVec(dst, a, b, n, mod);
}

/** Applies a (pos << 1 | flip) permutation map to one residue plane. */
inline void
applyCoeffMapVec(u64 *dst, const u64 *src, const u64 *map, u64 n, u64 q)
{
    simd::active().applyCoeffMap(dst, src, map, n, q);
}

// --- fused lazy multiply-accumulate ----------------------------------

/**
 * Longest fused chain over q: the largest L with
 * (q - 1)^2 * L + q < 2^64, so L raw products of canonical residues
 * plus one canonical addend fit a u64 accumulator. 0 when q >= 2^32,
 * where a single product can exceed 64 bits.
 */
constexpr u64
fusedMacMaxChain(u64 q)
{
    if (q >= simd::kFusedMacModulusBound)
        return 0;
    const u64 sq = (q - 1) * (q - 1);
    return (~u64{0} - q) / sq;
}

// Every shipped chain fits the paper primes (largest last): D0 <= 256
// RowSel links, l = 9 key-switch links, 2l = 16 external-product links.
static_assert(fusedMacMaxChain(kIvePrimes.back()) >= 256,
              "the paper primes must fuse a 256-long RowSel column");

/**
 * True when a chain of `links` products over mod accumulates in u64
 * with one deferred Barrett reduction; otherwise the chain runs strict.
 */
inline bool
fusedMacOk(const Modulus &mod, u64 links)
{
    return links <= fusedMacMaxChain(mod.value());
}

// --- per-plane MAC-chain dispatch ------------------------------------
//
// The chain sites (RowSel segments, the external product's 2l-row
// sums, Subs' key-switch sums) share one policy, decided here from
// (modulus, chain length): a fused chain accumulates raw u64 products
// in its destination plane and reduces once at the end; a strict chain
// multiply-accumulates canonically into the same plane as it goes.
// Either way the destination ends canonical, equal to (addend + sum of
// products) mod q, so the two paths are interchangeable bit for bit.
// Keeping the dispatch here means a policy change edits one place.

/**
 * Two links of two chains that share their first operand: dst0 (+)=
 * a o b0 and dst1 (+)= a o b1, reading a once on the fused path.
 * `store` on the first link of a chain without an addend overwrites
 * that destination, so destinations need no zero fill; otherwise it
 * holds the running sum (or, before the first link, a canonical addend
 * such as Subs' sigma_r(b)). Each destination has its own store flag;
 * both chains have `links` links, the chain's full length.
 */
inline void
chainMacPair(const Modulus &mod, u64 links, u64 n, u64 *dst0, u64 *dst1,
             const u64 *a, const u64 *b0, const u64 *b1, bool store0,
             bool store1)
{
    if (fusedMacOk(mod, links)) {
        simd::active().macChainPair(dst0, dst1, a, b0, b1, n, store0,
                                    store1);
        return;
    }
    auto strict = [&](u64 *dst, const u64 *b, bool store) {
        if (store) {
            for (u64 i = 0; i < n; ++i)
                dst[i] = 0;
        }
        mulAccVec(dst, a, b, n, mod);
    };
    strict(dst0, b0, store0);
    strict(dst1, b1, store1);
}

/** Ends a chain: a fused chain pays its one reduction, in place. */
inline void
chainMacFinish(const Modulus &mod, u64 links, u64 n, u64 *dst)
{
    if (fusedMacOk(mod, links))
        simd::active().macChainReduce(dst, n, mod);
}

} // namespace ive::kernels

#endif // IVE_POLY_KERNELS_HH
