/**
 * @file
 * AVX2 backend: 4-lane u64 kernels.
 *
 * AVX2 has no 64-bit multiplier, so every 64x64 product is synthesized
 * from 2x32-bit vpmuludq splits (mulHi64/mulLo64 below); values known
 * to be < 2^32 (fused-MAC residues, < 2^32 modulus products) use a
 * single vpmuludq. Unsigned 64-bit compares go through the usual
 * sign-bias trick since AVX2 only compares signed.
 *
 * Compiled with -mavx2 in its own TU; only reached behind the runtime
 * cpuid check in simd.cc, so the rest of the binary stays plain
 * x86-64.
 *
 * Contracts (shared with all backends, see simd.hh):
 *  - MAC inputs are < 2^32 (the fused-MAC chain policy only runs below
 *    32-bit moduli), and u64 chains stay inside their length bound
 *  - everything produces outputs bit-identical to the scalar backend
 */

#include <immintrin.h>

#include "poly/kernels.hh"
#include "poly/simd/backends.hh"

namespace ive::simd {
namespace {

constexpr u64 kLanes = 4;

inline __m256i
bias()
{
    return _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
}

/** Lane mask (all-ones / zero) of a < b, unsigned 64-bit. */
inline __m256i
ltU64(__m256i a, __m256i b)
{
    return _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias()),
                              _mm256_xor_si256(a, bias()));
}

/** a >= q ? a - q : a (canonicalizing conditional subtract). */
inline __m256i
csub(__m256i a, __m256i q)
{
    __m256i sub = _mm256_sub_epi64(a, q);
    return _mm256_blendv_epi8(sub, a, ltU64(a, q));
}

/** High 64 bits of the full 128-bit product, per lane. */
inline __m256i
mulHi64(__m256i a, __m256i b)
{
    __m256i lo_mask = _mm256_set1_epi64x(0xffffffffLL);
    __m256i a1 = _mm256_srli_epi64(a, 32);
    __m256i b1 = _mm256_srli_epi64(b, 32);
    __m256i t00 = _mm256_mul_epu32(a, b);
    __m256i t01 = _mm256_mul_epu32(a, b1);
    __m256i t10 = _mm256_mul_epu32(a1, b);
    __m256i t11 = _mm256_mul_epu32(a1, b1);
    __m256i mid = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(t00, 32),
                         _mm256_and_si256(t01, lo_mask)),
        _mm256_and_si256(t10, lo_mask));
    return _mm256_add_epi64(
        _mm256_add_epi64(t11, _mm256_srli_epi64(t01, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(t10, 32),
                         _mm256_srli_epi64(mid, 32)));
}

/** Low 64 bits of the product, per lane. */
inline __m256i
mulLo64(__m256i a, __m256i b)
{
    __m256i t00 = _mm256_mul_epu32(a, b);
    __m256i cross = _mm256_add_epi64(
        _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
        _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
    return _mm256_add_epi64(t00, _mm256_slli_epi64(cross, 32));
}

/** Lazy Shoup product in [0, 2q): a*b - floor(a*bs/2^64)*q. */
inline __m256i
mulShoupLazyVec(__m256i a, __m256i b, __m256i bs, __m256i q)
{
    __m256i approx = mulHi64(a, bs);
    return _mm256_sub_epi64(mulLo64(a, b), mulLo64(approx, q));
}

/** x mod q, canonical, for any u64 x (q any admissible modulus). */
inline __m256i
reduce64(__m256i x, __m256i m_hi, __m256i q)
{
    // t = floor(x * floor(2^64/q) / 2^64) >= floor(x/q) - 1, so one
    // conditional subtract canonicalizes.
    __m256i t = mulHi64(x, m_hi);
    __m256i r = _mm256_sub_epi64(x, mulLo64(t, q));
    return csub(r, q);
}

/** Values in [0, 4q) down to [0, q): the forward transform's last
 *  pass. */
void
canonicalizeVec(u64 *a, u64 n, u64 q)
{
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i two_qv = _mm256_add_epi64(qv, qv);
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        v = csub(v, two_qv);
        v = csub(v, qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + i), v);
    }
    if (i < n)
        scalar::canonicalizeVec(a + i, n - i, q);
}

void
nttForwardLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb)
{
    const u64 q = mod.value();
    const u64 *tw = tb.tw;
    const u64 *tws = tb.twShoup;
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i two_qv = _mm256_add_epi64(qv, qv);
    u64 t = n;
    for (u64 m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (u64 i = 0; i < m; ++i) {
            const u64 w = tw[m + i];
            const u64 ws = tws[m + i];
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            if (t >= kLanes) {
                __m256i wv = _mm256_set1_epi64x(static_cast<long long>(w));
                __m256i wsv =
                    _mm256_set1_epi64x(static_cast<long long>(ws));
                for (u64 j = 0; j < t; j += kLanes) {
                    __m256i xv = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(x + j));
                    __m256i yv = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(y + j));
                    __m256i u = csub(xv, two_qv);
                    __m256i v = mulShoupLazyVec(yv, wv, wsv, qv);
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(x + j),
                        _mm256_add_epi64(u, v));
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(y + j),
                        _mm256_sub_epi64(_mm256_add_epi64(u, two_qv),
                                         v));
                }
            } else {
                scalarFwdButterflyBlock(x, y, t, w, ws, q);
            }
        }
    }
    canonicalizeVec(a, n, q);
}

void
nttInverseLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb,
               u64 n_inv, u64 n_inv_shoup, u64 /*n_inv_shoup52*/)
{
    const u64 q = mod.value();
    const u64 *tw = tb.tw;
    const u64 *tws = tb.twShoup;
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i two_qv = _mm256_add_epi64(qv, qv);
    u64 t = 1;
    for (u64 m = n; m > 1; m >>= 1) {
        u64 j1 = 0;
        u64 h = m >> 1;
        for (u64 i = 0; i < h; ++i) {
            const u64 w = tw[h + i];
            const u64 ws = tws[h + i];
            u64 *x = a + j1;
            u64 *y = x + t;
            if (t >= kLanes) {
                __m256i wv = _mm256_set1_epi64x(static_cast<long long>(w));
                __m256i wsv =
                    _mm256_set1_epi64x(static_cast<long long>(ws));
                for (u64 j = 0; j < t; j += kLanes) {
                    __m256i u = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(x + j));
                    __m256i v = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(y + j));
                    __m256i s = _mm256_add_epi64(u, v);
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(x + j),
                        csub(s, two_qv));
                    __m256i d = _mm256_sub_epi64(
                        _mm256_add_epi64(u, two_qv), v);
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(y + j),
                        mulShoupLazyVec(d, wv, wsv, qv));
                }
            } else {
                scalarInvButterflyBlock(x, y, t, w, ws, q);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    __m256i niv = _mm256_set1_epi64x(static_cast<long long>(n_inv));
    __m256i nisv = _mm256_set1_epi64x(static_cast<long long>(n_inv_shoup));
    u64 j = 0;
    for (; j + kLanes <= n; j += kLanes) {
        __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + j));
        v = csub(mulShoupLazyVec(v, niv, nisv, qv), qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + j), v);
    }
    for (; j < n; ++j) {
        u64 v = kernels::mulShoupLazy(a[j], n_inv, n_inv_shoup, q);
        a[j] = v >= q ? v - q : v;
    }
}

void
addVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m256i s = _mm256_add_epi64(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(dst + i)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src + i)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            csub(s, qv));
    }
    if (i < n)
        scalar::addVec(dst + i, src + i, n - i, q);
}

void
subVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        // a - b, plus q where it would underflow.
        __m256i d = _mm256_sub_epi64(a, b);
        __m256i fix = _mm256_and_si256(ltU64(a, b), qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_add_epi64(d, fix));
    }
    if (i < n)
        scalar::subVec(dst + i, src + i, n - i, q);
}

void
negVec(u64 *dst, u64 n, u64 q)
{
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i zero = _mm256_setzero_si256();
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        __m256i neg = _mm256_sub_epi64(qv, v);
        __m256i is_zero = _mm256_cmpeq_epi64(v, zero);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_andnot_si256(is_zero, neg));
    }
    if (i < n)
        scalar::negVec(dst + i, n - i, q);
}

void
mulVec(u64 *dst, const u64 *src, u64 n, const Modulus &mod)
{
    const u64 q = mod.value();
    if (q >= kFusedMacModulusBound) {
        // Products need the full 128-bit Barrett; the scalar path's
        // native 128-bit arithmetic wins there.
        scalar::mulVec(dst, src, n, mod);
        return;
    }
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i mh = _mm256_set1_epi64x(
        static_cast<long long>(mod.barrettHi()));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        __m256i p = _mm256_mul_epu32(a, b); // both < 2^32
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            reduce64(p, mh, qv));
    }
    if (i < n)
        scalar::mulVec(dst + i, src + i, n - i, mod);
}

void
mulShoupVec(u64 *dst, const u64 *b, const u64 *b_shoup, u64 n, u64 q)
{
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        __m256i bsv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b_shoup + i));
        __m256i r = mulShoupLazyVec(a, bv, bsv, qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            csub(r, qv));
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
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i mh = _mm256_set1_epi64x(
        static_cast<long long>(mod.barrettHi()));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        __m256i p = reduce64(_mm256_mul_epu32(av, bv), mh, qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            csub(_mm256_add_epi64(d, p), qv));
    }
    if (i < n)
        scalar::mulAccVec(dst + i, a + i, b + i, n - i, mod);
}

void
macAccumulate(u128 *acc, const u64 *a, const u64 *b, u64 n)
{
    // acc is interleaved lo/hi pairs in memory (little-endian u128).
    u64 *mem = reinterpret_cast<u64 *>(acc);
    __m256i zero = _mm256_setzero_si256();
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        __m256i p = _mm256_mul_epu32(av, bv); // inputs < 2^32
        // [p0 p1 p2 p3] -> [p0 0 p1 0] and [p2 0 p3 0].
        __m256i pp = _mm256_permute4x64_epi64(p, 0b11011000);
        __m256i pe01 = _mm256_unpacklo_epi64(pp, zero);
        __m256i pe23 = _mm256_unpackhi_epi64(pp, zero);
        u64 *m0 = mem + 2 * i;
        __m256i acc01 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(m0));
        __m256i acc23 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(m0 + 4));
        __m256i s01 = _mm256_add_epi64(acc01, pe01);
        __m256i s23 = _mm256_add_epi64(acc23, pe23);
        // Carry out of a lo lane bumps the hi lane one position up
        // (slli_si256 shifts within each 128-bit half: 0->1, 2->3).
        __m256i c01 = _mm256_slli_si256(ltU64(s01, pe01), 8);
        __m256i c23 = _mm256_slli_si256(ltU64(s23, pe23), 8);
        s01 = _mm256_sub_epi64(s01, c01); // mask is -1: subtract = +1
        s23 = _mm256_sub_epi64(s23, c23);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(m0), s01);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(m0 + 4), s23);
    }
    if (i < n)
        scalar::macAccumulate(acc + i, a + i, b + i, n - i);
}

void
macChainPair(u64 *acc0, u64 *acc1, const u64 *a, const u64 *b0,
             const u64 *b1, u64 n, bool store0, bool store1)
{
    // A store link adds its product to zero instead of the running sum.
    const __m256i keep0 = _mm256_set1_epi64x(store0 ? 0 : -1);
    const __m256i keep1 = _mm256_set1_epi64x(store1 ? 0 : -1);
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        __m256i *o0 = reinterpret_cast<__m256i *>(acc0 + i);
        __m256i *o1 = reinterpret_cast<__m256i *>(acc1 + i);
        const __m256i p0 = _mm256_mul_epu32(
            av,
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b0 + i)));
        const __m256i p1 = _mm256_mul_epu32(
            av,
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b1 + i)));
        _mm256_storeu_si256(
            o0, _mm256_add_epi64(
                    _mm256_and_si256(_mm256_loadu_si256(o0), keep0), p0));
        _mm256_storeu_si256(
            o1, _mm256_add_epi64(
                    _mm256_and_si256(_mm256_loadu_si256(o1), keep1), p1));
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
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i mh = _mm256_set1_epi64x(
        static_cast<long long>(mod.barrettHi()));
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m256i *p = reinterpret_cast<__m256i *>(acc + i);
        _mm256_storeu_si256(p, reduce64(_mm256_loadu_si256(p), mh, qv));
    }
    if (i < n)
        scalar::macChainReduce(acc + i, n - i, mod);
}

} // namespace

const Kernels kAvx2Kernels = {
    Isa::Avx2,
    "avx2",
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
    // The digit decomposer's vector path is AVX-512 only.
    &scalar::decomposeDigits,
    // No scatter on AVX2: the permutation keeps the scalar loop.
    &scalar::applyCoeffMap,
};

} // namespace ive::simd
