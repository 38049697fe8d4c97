/**
 * @file
 * The AVX-512 NTT schedule, shared by the generic and IFMA entries.
 *
 * Internal header: included only by kernels_avx512.cc and
 * kernels_avx512ifma.cc (both compiled with AVX-512 flags). The Shoup
 * product is injected as a callable mul(a, w, ws) -> [0, 2q), so the
 * generic 2^64-Shoup and the IFMA 2^52-Shoup variants share the pass
 * structure, the register block and the lazy-range bookkeeping.
 *
 * Forward (Cooley-Tukey, natural in, bit-reversed out), n >= 64:
 *  - wide stages (t >= 64) run two per load/store pass (radix 4), with
 *    one radix-2 pass when their count is odd;
 *  - the last six stages run on 64-coefficient blocks held in eight
 *    registers: t = 32, 16, 8 pair whole registers, one 8 x 8
 *    transpose puts block coefficient 8k + l in lane k of register l,
 *    t = 4, 2, 1 pair registers again with twiddles loaded in lane
 *    order (NttTable's lane tables), and a transpose back precedes the
 *    store. The canonicalization happens in those registers too.
 * The inverse (Gentleman-Sande) mirrors it: the register block runs
 * t = 1 .. 32 first, then the wide stages, and the last pass folds in
 * the n^-1 scaling.
 *
 * Lazy ranges. No butterfly subtracts: forward values grow by < 2q
 * per stage and inverse sums double, and one Shoup-by-1 (forward) or
 * Shoup-by-n^-1 (inverse) plus a conditional subtract lands every
 * value canonical at the end. The entries run this schedule only where
 * NttTable found simd::fwdUnreducedBound / invUnreducedBound inside
 * their Shoup operand; any other (q, n) goes to the next table down
 * (IFMA to generic, generic to scalar).
 */

#ifndef IVE_POLY_SIMD_AVX512_NTT_HH
#define IVE_POLY_SIMD_AVX512_NTT_HH

#include <immintrin.h>

#include "poly/simd/simd.hh"

namespace ive::simd::avx512ntt {

/** a >= q ? a - q : a via unsigned min: a - q wraps huge when a < q. */
inline __m512i
csub(__m512i a, __m512i q)
{
    return _mm512_min_epu64(a, _mm512_sub_epi64(a, q));
}

inline __m512i
bcast(u64 v)
{
    return _mm512_set1_epi64(static_cast<long long>(v));
}

inline __m512i
load(const u64 *p)
{
    return _mm512_loadu_si512(p);
}

inline void
store(u64 *p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

/**
 * In-register 8 x 8 transpose: lane l of r[k] <-> lane k of r[l]. All
 * three rounds are two-source permutes (vpermt2q).
 */
inline void
transpose8(__m512i r[8])
{
    // Round 1: t[2j] / t[2j + 1] interleave the even / odd columns of
    // rows 2j and 2j + 1.
    const __m512i even = _mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14);
    const __m512i odd = _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15);
    __m512i t[8];
    for (int k = 0; k < 8; k += 2) {
        t[k] = _mm512_permutex2var_epi64(r[k], even, r[k + 1]);
        t[k + 1] = _mm512_permutex2var_epi64(r[k], odd, r[k + 1]);
    }
    // Round 2: gather four rows per 256-bit half, so u[l] (rows 0..3)
    // and u[l + 4] (rows 4..7) hold columns l and l + 4 in their low
    // and high halves.
    const __m512i lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    __m512i u[8];
    for (int h = 0; h < 8; h += 4) {
        u[h] = _mm512_permutex2var_epi64(t[h], lo, t[h + 2]);
        u[h + 2] = _mm512_permutex2var_epi64(t[h], hi, t[h + 2]);
        u[h + 1] = _mm512_permutex2var_epi64(t[h + 1], lo, t[h + 3]);
        u[h + 3] = _mm512_permutex2var_epi64(t[h + 1], hi, t[h + 3]);
    }
    // Round 3: join the halves.
    const __m512i low = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    const __m512i high = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    for (int l = 0; l < 4; ++l) {
        r[l] = _mm512_permutex2var_epi64(u[l], low, u[l + 4]);
        r[l + 4] = _mm512_permutex2var_epi64(u[l], high, u[l + 4]);
    }
}

/**
 * Forward transform, n >= 64. tws / lane_s are the companions of tw /
 * lane that `mul` consumes; one_s is the companion of 1 (the final
 * Shoup-by-1).
 */
template <typename Mul>
inline void
forward(u64 *a, u64 n, u64 q, const u64 *tw, const u64 *tws,
        const u64 *lane, const u64 *lane_s, u64 one_s, Mul &&mul)
{
    const __m512i qv = bcast(q);
    const __m512i two_q = bcast(2 * q);
    auto bf = [&](__m512i &x, __m512i &y, __m512i w, __m512i ws) {
        const __m512i v = mul(y, w, ws);
        y = _mm512_sub_epi64(_mm512_add_epi64(x, two_q), v);
        x = _mm512_add_epi64(x, v);
    };

    // Stage m has half-width t = n / (2m); twiddle of block i is
    // tw[m + i].
    u64 m = 1;
    u64 t = n / 2;
    for (; t >= 2 * kNttBlock; m *= 4, t /= 4) {
        // Stages (m, t) and (2m, t/2) on quarters A B C D of block i.
        const u64 h = t / 2;
        for (u64 i = 0; i < m; ++i) {
            const __m512i w1 = bcast(tw[m + i]), s1 = bcast(tws[m + i]);
            const __m512i w2 = bcast(tw[2 * m + 2 * i]);
            const __m512i s2 = bcast(tws[2 * m + 2 * i]);
            const __m512i w3 = bcast(tw[2 * m + 2 * i + 1]);
            const __m512i s3 = bcast(tws[2 * m + 2 * i + 1]);
            u64 *p = a + 2 * i * t;
            for (u64 j = 0; j < h; j += 8) {
                __m512i qa = load(p + j), qb = load(p + h + j);
                __m512i qc = load(p + 2 * h + j), qd = load(p + 3 * h + j);
                bf(qa, qc, w1, s1);
                bf(qb, qd, w1, s1);
                bf(qa, qb, w2, s2);
                bf(qc, qd, w3, s3);
                store(p + j, qa);
                store(p + h + j, qb);
                store(p + 2 * h + j, qc);
                store(p + 3 * h + j, qd);
            }
        }
    }
    if (t >= kNttBlock) {
        for (u64 i = 0; i < m; ++i) {
            const __m512i w = bcast(tw[m + i]), s = bcast(tws[m + i]);
            u64 *p = a + 2 * i * t;
            for (u64 j = 0; j < t; j += 8) {
                __m512i x = load(p + j), y = load(p + t + j);
                bf(x, y, w, s);
                store(p + j, x);
                store(p + t + j, y);
            }
        }
        m *= 2;
    }

    // Register block: m == n / 64, t == 32.
    const __m512i one = bcast(1), one_sv = bcast(one_s);
    for (u64 c = 0; c < n / kNttBlock; ++c) {
        u64 *p = a + kNttBlock * c;
        __m512i r[8];
        for (int k = 0; k < 8; ++k)
            r[k] = load(p + 8 * k);
        {
            const __m512i w = bcast(tw[m + c]), s = bcast(tws[m + c]);
            for (int k = 0; k < 4; ++k)
                bf(r[k], r[k + 4], w, s);
        }
        for (int g = 0; g < 2; ++g) {
            const u64 e = 2 * m + 2 * c + g;
            const __m512i w = bcast(tw[e]), s = bcast(tws[e]);
            bf(r[4 * g], r[4 * g + 2], w, s);
            bf(r[4 * g + 1], r[4 * g + 3], w, s);
        }
        for (int g = 0; g < 4; ++g) {
            const u64 e = 4 * m + 4 * c + g;
            bf(r[2 * g], r[2 * g + 1], bcast(tw[e]), bcast(tws[e]));
        }
        transpose8(r);
        const u64 *lw = lane + kNttLaneWords * c;
        const u64 *ls = lane_s + kNttLaneWords * c;
        {
            const __m512i w = load(lw), s = load(ls);
            for (int k = 0; k < 4; ++k)
                bf(r[k], r[k + 4], w, s);
        }
        for (int g = 0; g < 2; ++g) {
            const __m512i w = load(lw + 8 + 8 * g);
            const __m512i s = load(ls + 8 + 8 * g);
            bf(r[4 * g], r[4 * g + 2], w, s);
            bf(r[4 * g + 1], r[4 * g + 3], w, s);
        }
        for (int g = 0; g < 4; ++g) {
            bf(r[2 * g], r[2 * g + 1], load(lw + 24 + 8 * g),
               load(ls + 24 + 8 * g));
        }
        for (int k = 0; k < 8; ++k)
            r[k] = csub(mul(r[k], one, one_sv), qv);
        transpose8(r);
        for (int k = 0; k < 8; ++k)
            store(p + 8 * k, r[k]);
    }
}

/**
 * Inverse transform with the n^-1 scaling, n >= 64; canonical output.
 * n_inv_s is the companion of n_inv that `mul` consumes.
 */
template <typename Mul>
inline void
inverse(u64 *a, u64 n, u64 q, const u64 *tw, const u64 *tws,
        const u64 *lane, const u64 *lane_s, u64 n_inv, u64 n_inv_s,
        Mul &&mul)
{
    const __m512i qv = bcast(q);
    // The stage of width t adds t q to keep x - y nonnegative: its
    // inputs stay below t q (they double per stage from canonical
    // input).
    auto kOf = [&](u64 t) { return bcast(t * q); };
    auto bf = [&](__m512i &x, __m512i &y, __m512i w, __m512i ws,
                  __m512i k) {
        const __m512i d = _mm512_sub_epi64(_mm512_add_epi64(x, k), y);
        x = _mm512_add_epi64(x, y);
        y = mul(d, w, ws);
    };
    const __m512i ninv = bcast(n_inv), ninv_s = bcast(n_inv_s);
    auto scale = [&](__m512i &x) { x = csub(mul(x, ninv, ninv_s), qv); };

    // Register block: stages t = 1 .. 32, i.e. m = n / (2t) = n/2 ..
    // n/64 blocks of twiddles tw[m + i].
    const u64 m = n / kNttBlock;
    const __m512i k1 = kOf(1), k2 = kOf(2), k4 = kOf(4);
    const __m512i k8 = kOf(8), k16 = kOf(16), k32 = kOf(32);
    for (u64 c = 0; c < n / kNttBlock; ++c) {
        u64 *p = a + kNttBlock * c;
        __m512i r[8];
        for (int k = 0; k < 8; ++k)
            r[k] = load(p + 8 * k);
        transpose8(r);
        const u64 *lw = lane + kNttLaneWords * c;
        const u64 *ls = lane_s + kNttLaneWords * c;
        for (int g = 0; g < 4; ++g) {
            bf(r[2 * g], r[2 * g + 1], load(lw + 24 + 8 * g),
               load(ls + 24 + 8 * g), k1);
        }
        for (int g = 0; g < 2; ++g) {
            const __m512i w = load(lw + 8 + 8 * g);
            const __m512i s = load(ls + 8 + 8 * g);
            bf(r[4 * g], r[4 * g + 2], w, s, k2);
            bf(r[4 * g + 1], r[4 * g + 3], w, s, k2);
        }
        {
            const __m512i w = load(lw), s = load(ls);
            for (int k = 0; k < 4; ++k)
                bf(r[k], r[k + 4], w, s, k4);
        }
        transpose8(r);
        for (int g = 0; g < 4; ++g) {
            const u64 e = 4 * m + 4 * c + g;
            bf(r[2 * g], r[2 * g + 1], bcast(tw[e]), bcast(tws[e]), k8);
        }
        for (int g = 0; g < 2; ++g) {
            const u64 e = 2 * m + 2 * c + g;
            const __m512i w = bcast(tw[e]), s = bcast(tws[e]);
            bf(r[4 * g], r[4 * g + 2], w, s, k16);
            bf(r[4 * g + 1], r[4 * g + 3], w, s, k16);
        }
        {
            const __m512i w = bcast(tw[m + c]), s = bcast(tws[m + c]);
            for (int k = 0; k < 4; ++k)
                bf(r[k], r[k + 4], w, s, k32);
        }
        if (n == kNttBlock) {
            for (int k = 0; k < 8; ++k)
                scale(r[k]);
        }
        for (int k = 0; k < 8; ++k)
            store(p + 8 * k, r[k]);
    }

    // Wide stages t = 64 .. n/2: two per pass while two remain.
    u64 t = kNttBlock;
    for (; 4 * t <= n; t *= 4) {
        // Stages t (blocks tw[h + i]) and 2t (tw[h/2 + i]) on quarters
        // A B C D of each 4t-wide block i.
        const u64 h = n / (2 * t);
        const bool last = 4 * t == n;
        const __m512i ka = kOf(t), kb = kOf(2 * t);
        for (u64 i = 0; i < h / 2; ++i) {
            const __m512i w1 = bcast(tw[h + 2 * i]);
            const __m512i s1 = bcast(tws[h + 2 * i]);
            const __m512i w2 = bcast(tw[h + 2 * i + 1]);
            const __m512i s2 = bcast(tws[h + 2 * i + 1]);
            const __m512i w3 = bcast(tw[h / 2 + i]);
            const __m512i s3 = bcast(tws[h / 2 + i]);
            u64 *p = a + 4 * t * i;
            for (u64 j = 0; j < t; j += 8) {
                __m512i qa = load(p + j), qb = load(p + t + j);
                __m512i qc = load(p + 2 * t + j), qd = load(p + 3 * t + j);
                bf(qa, qb, w1, s1, ka);
                bf(qc, qd, w2, s2, ka);
                bf(qa, qc, w3, s3, kb);
                bf(qb, qd, w3, s3, kb);
                if (last) {
                    scale(qa);
                    scale(qb);
                    scale(qc);
                    scale(qd);
                }
                store(p + j, qa);
                store(p + t + j, qb);
                store(p + 2 * t + j, qc);
                store(p + 3 * t + j, qd);
            }
        }
    }
    if (2 * t == n) {
        // One stage left: a single block with twiddle tw[1].
        const __m512i w = bcast(tw[1]), s = bcast(tws[1]);
        const __m512i k = kOf(t);
        for (u64 j = 0; j < t; j += 8) {
            __m512i x = load(a + j), y = load(a + t + j);
            bf(x, y, w, s, k);
            scale(x);
            scale(y);
            store(a + j, x);
            store(a + t + j, y);
        }
    }
}

} // namespace ive::simd::avx512ntt

#endif // IVE_POLY_SIMD_AVX512_NTT_HH
