/**
 * @file
 * AVX-512 backend: 8-lane u64 kernels (requires F + DQ).
 *
 * Compared with AVX2 this gets native unsigned 64-bit compares (mask
 * registers), vpminuq for the lazy conditional subtract, vpmullq for
 * low-64 products, and vpscatterqq for the automorphism permutation.
 * High-64 products are still synthesized from 2x32-bit vpmuludq
 * splits — AVX-512F has no 64-bit mulhi; the IFMA TU supplies the
 * faster 52-bit butterflies for moduli below 2^50.
 *
 * Compiled with -mavx512f -mavx512dq -mavx512vl in its own TU; only
 * reached behind the runtime cpuid check in simd.cc. Same contracts as
 * every backend (see simd.hh): outputs bit-identical to scalar,
 * MAC inputs < 2^32, u64 chains inside their length bound.
 */

#include <immintrin.h>

#include <algorithm>

#include "poly/kernels.hh"
#include "poly/simd/avx512_ntt.hh"
#include "poly/simd/backends.hh"

namespace ive::simd {
namespace {

constexpr u64 kLanes = 8;

using avx512ntt::bcast;
using avx512ntt::csub;

/** High 64 bits of the full 128-bit product, per lane. */
inline __m512i
mulHi64(__m512i a, __m512i b)
{
    __m512i lo_mask = _mm512_set1_epi64(0xffffffffLL);
    __m512i a1 = _mm512_srli_epi64(a, 32);
    __m512i b1 = _mm512_srli_epi64(b, 32);
    __m512i t00 = _mm512_mul_epu32(a, b);
    __m512i t01 = _mm512_mul_epu32(a, b1);
    __m512i t10 = _mm512_mul_epu32(a1, b);
    __m512i t11 = _mm512_mul_epu32(a1, b1);
    __m512i mid = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_srli_epi64(t00, 32),
                         _mm512_and_si512(t01, lo_mask)),
        _mm512_and_si512(t10, lo_mask));
    return _mm512_add_epi64(
        _mm512_add_epi64(t11, _mm512_srli_epi64(t01, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(t10, 32),
                         _mm512_srli_epi64(mid, 32)));
}

/** Lazy Shoup product in [0, 2q): a*b - floor(a*bs/2^64)*q. */
inline __m512i
mulShoupLazyVec(__m512i a, __m512i b, __m512i bs, __m512i q)
{
    __m512i approx = mulHi64(a, bs);
    return _mm512_sub_epi64(_mm512_mullo_epi64(a, b),
                            _mm512_mullo_epi64(approx, q));
}

/** x mod q, canonical, for any u64 x. */
inline __m512i
reduce64(__m512i x, __m512i m_hi, __m512i q)
{
    __m512i t = mulHi64(x, m_hi);
    __m512i r = _mm512_sub_epi64(x, _mm512_mullo_epi64(t, q));
    return csub(r, q);
}

/** The generic lazy Shoup product, as the NTT schedule injects it. */
struct MulShoup64
{
    __m512i q;

    __m512i
    operator()(__m512i a, __m512i b, __m512i bs) const
    {
        return mulShoupLazyVec(a, b, bs, q);
    }
};

void
nttForwardLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb)
{
    if (tb.lane == nullptr || !tb.unreduced64) {
        // Below the register block's 64 coefficients, or a modulus
        // too wide for the unreduced bound.
        scalar::nttForwardLazy(a, n, mod, tb);
        return;
    }
    const u64 q = mod.value();
    avx512ntt::forward(a, n, q, tb.tw, tb.twShoup, tb.lane, tb.laneShoup,
                       mod.shoupPrecompute(1), MulShoup64{bcast(q)});
}

void
nttInverseLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb,
               u64 n_inv, u64 n_inv_shoup, u64 n_inv_shoup52)
{
    if (tb.lane == nullptr || !tb.unreduced64) {
        scalar::nttInverseLazy(a, n, mod, tb, n_inv, n_inv_shoup,
                               n_inv_shoup52);
        return;
    }
    const u64 q = mod.value();
    avx512ntt::inverse(a, n, q, tb.tw, tb.twShoup, tb.lane, tb.laneShoup,
                       n_inv, n_inv_shoup, MulShoup64{bcast(q)});
}

void
addVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m512i s = _mm512_add_epi64(_mm512_loadu_si512(dst + i),
                                     _mm512_loadu_si512(src + i));
        _mm512_storeu_si512(dst + i, csub(s, qv));
    }
    if (i < n)
        scalar::addVec(dst + i, src + i, n - i, q);
}

void
subVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m512i a = _mm512_loadu_si512(dst + i);
        __m512i b = _mm512_loadu_si512(src + i);
        __mmask8 lt = _mm512_cmplt_epu64_mask(a, b);
        __m512i d = _mm512_sub_epi64(a, b);
        _mm512_storeu_si512(dst + i,
                            _mm512_mask_add_epi64(d, lt, d, qv));
    }
    if (i < n)
        scalar::subVec(dst + i, src + i, n - i, q);
}

void
negVec(u64 *dst, u64 n, u64 q)
{
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    __m512i zero = _mm512_setzero_si512();
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m512i v = _mm512_loadu_si512(dst + i);
        __mmask8 nz = _mm512_cmpneq_epu64_mask(v, zero);
        _mm512_storeu_si512(
            dst + i, _mm512_maskz_sub_epi64(nz, qv, v));
    }
    if (i < n)
        scalar::negVec(dst + i, n - i, q);
}

void
mulVec(u64 *dst, const u64 *src, u64 n, const Modulus &mod)
{
    const u64 q = mod.value();
    if (q >= kFusedMacModulusBound) {
        scalar::mulVec(dst, src, n, mod);
        return;
    }
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    __m512i mh =
        _mm512_set1_epi64(static_cast<long long>(mod.barrettHi()));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m512i a = _mm512_loadu_si512(dst + i);
        __m512i b = _mm512_loadu_si512(src + i);
        __m512i p = _mm512_mul_epu32(a, b); // both < 2^32
        _mm512_storeu_si512(dst + i, reduce64(p, mh, qv));
    }
    if (i < n)
        scalar::mulVec(dst + i, src + i, n - i, mod);
}

void
mulShoupVec(u64 *dst, const u64 *b, const u64 *b_shoup, u64 n, u64 q)
{
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m512i a = _mm512_loadu_si512(dst + i);
        __m512i bv = _mm512_loadu_si512(b + i);
        __m512i bsv = _mm512_loadu_si512(b_shoup + i);
        __m512i r = mulShoupLazyVec(a, bv, bsv, qv);
        _mm512_storeu_si512(dst + i, csub(r, qv));
    }
    if (i < n)
        scalar::mulShoupVec(dst + i, b + i, b_shoup + i, n - i, q);
}

void
mulAccVec(u64 *dst, const u64 *a, const u64 *b, u64 n, const Modulus &mod)
{
    const u64 q = mod.value();
    if (q >= kFusedMacModulusBound) {
        scalar::mulAccVec(dst, a, b, n, mod);
        return;
    }
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    __m512i mh =
        _mm512_set1_epi64(static_cast<long long>(mod.barrettHi()));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m512i av = _mm512_loadu_si512(a + i);
        __m512i bv = _mm512_loadu_si512(b + i);
        __m512i d = _mm512_loadu_si512(dst + i);
        __m512i p = reduce64(_mm512_mul_epu32(av, bv), mh, qv);
        _mm512_storeu_si512(dst + i, csub(_mm512_add_epi64(d, p), qv));
    }
    if (i < n)
        scalar::mulAccVec(dst + i, a + i, b + i, n - i, mod);
}

void
macAccumulate(u128 *acc, const u64 *a, const u64 *b, u64 n)
{
    u64 *mem = reinterpret_cast<u64 *>(acc);
    // Spread products into the lo slots of the interleaved u128 pairs:
    // element e of p goes to lane 2e (acc lo), odd lanes stay zero.
    const __m512i idx_lo = _mm512_setr_epi64(0, 0, 1, 0, 2, 0, 3, 0);
    const __m512i idx_hi = _mm512_setr_epi64(4, 0, 5, 0, 6, 0, 7, 0);
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m512i av = _mm512_loadu_si512(a + i);
        __m512i bv = _mm512_loadu_si512(b + i);
        __m512i p = _mm512_mul_epu32(av, bv); // inputs < 2^32
        __m512i pe0 = _mm512_maskz_permutexvar_epi64(0x55, idx_lo, p);
        __m512i pe1 = _mm512_maskz_permutexvar_epi64(0x55, idx_hi, p);
        u64 *m0 = mem + 2 * i;
        __m512i acc0 = _mm512_loadu_si512(m0);
        __m512i acc1 = _mm512_loadu_si512(m0 + 8);
        __m512i s0 = _mm512_add_epi64(acc0, pe0);
        __m512i s1 = _mm512_add_epi64(acc1, pe1);
        // Lo-lane carries bump the neighbouring hi lane.
        __mmask8 c0 = _mm512_cmplt_epu64_mask(s0, pe0);
        __mmask8 c1 = _mm512_cmplt_epu64_mask(s1, pe1);
        __m512i one = _mm512_set1_epi64(1);
        s0 = _mm512_mask_add_epi64(
            s0, static_cast<__mmask8>(c0 << 1), s0, one);
        s1 = _mm512_mask_add_epi64(
            s1, static_cast<__mmask8>(c1 << 1), s1, one);
        _mm512_storeu_si512(m0, s0);
        _mm512_storeu_si512(m0 + 8, s1);
    }
    if (i < n)
        scalar::macAccumulate(acc + i, a + i, b + i, n - i);
}

void
macChainPair(u64 *acc0, u64 *acc1, const u64 *a, const u64 *b0,
             const u64 *b1, u64 n, bool store0, bool store1)
{
    // Masked loads of the running sums: a store link reads zero.
    const __mmask8 keep0 = store0 ? 0 : 0xff;
    const __mmask8 keep1 = store1 ? 0 : 0xff;
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const __m512i av = _mm512_loadu_si512(a + i);
        const __m512i p0 = _mm512_mul_epu32(av, _mm512_loadu_si512(b0 + i));
        const __m512i p1 = _mm512_mul_epu32(av, _mm512_loadu_si512(b1 + i));
        _mm512_storeu_si512(
            acc0 + i,
            _mm512_add_epi64(_mm512_maskz_loadu_epi64(keep0, acc0 + i), p0));
        _mm512_storeu_si512(
            acc1 + i,
            _mm512_add_epi64(_mm512_maskz_loadu_epi64(keep1, acc1 + i), p1));
    }
    if (i < n)
        scalar::macChainPair(acc0 + i, acc1 + i, a + i, b0 + i, b1 + i,
                             n - i, store0, store1);
}

void
macChainReduce(u64 *acc, u64 n, const Modulus &mod)
{
    const u64 q = mod.value();
    if (q >= kFusedMacModulusBound) {
        scalar::macChainReduce(acc, n, mod);
        return;
    }
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    __m512i mh =
        _mm512_set1_epi64(static_cast<long long>(mod.barrettHi()));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        _mm512_storeu_si512(
            acc + i, reduce64(_mm512_loadu_si512(acc + i), mh, qv));
    }
    if (i < n)
        scalar::macChainReduce(acc + i, n - i, mod);
}

/** a * w mod q in [0, 2q) for any a < 2^32 (w < q < 2^32, ws its
 *  2^32 Shoup companion): three 32 x 32-bit products. */
inline __m512i
mulShoup32(__m512i a, __m512i w, __m512i ws, __m512i q)
{
    __m512i approx = _mm512_srli_epi64(_mm512_mul_epu32(a, ws), 32);
    return _mm512_sub_epi64(_mm512_mul_epu32(a, w),
                            _mm512_mul_epu32(approx, q));
}

constexpr int kDigitMaxPlanes = 8;

/**
 * Garner mixed radix, then a radix-2^logZ Horner pass that yields the
 * digits directly: every lane product is a 32 x 32-bit vpmuludq. The
 * vector path needs the Garner tables (every prime below 2^32) and
 * z <= every prime, so a digit is canonical in every plane; any other
 * plan runs the scalar reference.
 */
void
decomposeDigits(const DigitPlan &plan, const u64 *src, u64 stride,
                u64 from, u64 to, u64 *const *dst)
{
    const int k = plan.k;
    const int ell = plan.ell;
    const int logz = plan.logZ;
    const u64 z = u64{1} << logz;
    bool vec = plan.garner != nullptr && k <= kDigitMaxPlanes;
    for (int p = 0; p < k && vec; ++p)
        vec = z <= plan.moduli[p].value();
    if (!vec) {
        scalar::decomposeDigits(plan, src, stride, from, to, dst);
        return;
    }
    // Limbs after folding in primes p..k-1: the partial value is below
    // 2^(bit widths of q_p..q_{k-1}), and never needs more than ell
    // limbs because the whole x < Q <= z^ell.
    int limbs_from[kDigitMaxPlanes];
    int bits = 0;
    for (int p = k - 1; p >= 0; --p) {
        bits += 64 - __builtin_clzll(plan.moduli[p].value());
        limbs_from[p] = std::min(ell, (bits + logz - 1) / logz);
    }
    const __m512i mask = _mm512_set1_epi64(static_cast<long long>(z - 1));
    const __m128i shift = _mm_cvtsi32_si128(logz);
    const __m512i zero = _mm512_setzero_si512();

    u64 i = from;
    for (; i + kLanes <= to; i += kLanes) {
        __m512i v[kDigitMaxPlanes];
        v[0] = _mm512_loadu_si512(src + i);
        const u64 *c = plan.garner;
        const u64 *cs = plan.garnerShoup32;
        for (int p = 1; p < k; ++p) {
            const u64 q = plan.moduli[p].value();
            const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
            const __m512i two_qv = _mm512_add_epi64(qv, qv);
            __m512i x = _mm512_loadu_si512(src + p * stride + i);
            // Row p: c[0..p-1] weight v_0..v_{p-1}, c[p] weights x_p;
            // every term is in [0, 2q) and the sum stays there.
            __m512i s = mulShoup32(
                x, _mm512_set1_epi64(static_cast<long long>(c[p])),
                _mm512_set1_epi64(static_cast<long long>(cs[p])), qv);
            for (int j = 0; j < p; ++j) {
                __m512i t = mulShoup32(
                    v[j], _mm512_set1_epi64(static_cast<long long>(c[j])),
                    _mm512_set1_epi64(static_cast<long long>(cs[j])),
                    qv);
                s = csub(_mm512_add_epi64(s, t), two_qv);
            }
            v[p] = csub(s, qv);
            c += p + 1;
            cs += p + 1;
        }

        // Horner from the top: N = v_{k-1}, then N = N * q_p + v_p.
        // limb < z <= 2^30 and q_p < 2^32, and the carry stays below
        // 2 q_p, so each limb * q_p + carry fits 63 bits.
        __m512i limb[kMaxDigits];
        int m = 0;
        {
            __m512i carry = v[k - 1];
            for (; m < limbs_from[k - 1]; ++m) {
                limb[m] = _mm512_and_si512(carry, mask);
                carry = _mm512_srl_epi64(carry, shift);
            }
        }
        for (int p = k - 2; p >= 0; --p) {
            const __m512i qv = _mm512_set1_epi64(
                static_cast<long long>(plan.moduli[p].value()));
            __m512i carry = v[p];
            int j = 0;
            for (; j < m; ++j) {
                __m512i t = _mm512_add_epi64(
                    _mm512_mul_epu32(limb[j], qv), carry);
                limb[j] = _mm512_and_si512(t, mask);
                carry = _mm512_srl_epi64(t, shift);
            }
            for (; j < limbs_from[p]; ++j) {
                limb[j] = _mm512_and_si512(carry, mask);
                carry = _mm512_srl_epi64(carry, shift);
            }
            m = limbs_from[p];
        }
        for (int j = 0; j < ell; ++j) {
            const __m512i d = j < m ? limb[j] : zero;
            for (int p = 0; p < k; ++p)
                _mm512_storeu_si512(dst[j] + p * stride + i, d);
        }
    }
    if (i < to)
        scalar::decomposeDigits(plan, src, stride, i, to, dst);
}

void
applyCoeffMap(u64 *dst, const u64 *src, const u64 *map, u64 n, u64 q)
{
    // The map is a bijection, so the scatter never has lane conflicts.
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    __m512i zero = _mm512_setzero_si512();
    __m512i one = _mm512_set1_epi64(1);
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m512i m = _mm512_loadu_si512(map + i);
        __m512i v = _mm512_loadu_si512(src + i);
        __m512i pos = _mm512_srli_epi64(m, 1);
        __mmask8 flip = _mm512_test_epi64_mask(m, one);
        __mmask8 nz = _mm512_cmpneq_epu64_mask(v, zero);
        // flip && v != 0 -> q - v; flip && v == 0 -> 0 (== v).
        __m512i neg = _mm512_sub_epi64(qv, v);
        __m512i val =
            _mm512_mask_blend_epi64(flip & nz, v, neg);
        _mm512_i64scatter_epi64(dst, pos, val, 8);
    }
    // Map positions are absolute: the tail keeps the full dst base.
    if (i < n)
        scalar::applyCoeffMap(dst, src + i, map + i, n - i, q);
}

} // namespace

const Kernels kAvx512Kernels = {
    Isa::Avx512,
    "avx512",
    &nttForwardLazy,
    &nttInverseLazy,
    &addVec,
    &subVec,
    &negVec,
    &mulVec,
    &mulShoupVec,
    &mulAccVec,
    &macChainPair,
    &macChainReduce,
    &macAccumulate,
    &decomposeDigits,
    &applyCoeffMap,
};

} // namespace ive::simd
