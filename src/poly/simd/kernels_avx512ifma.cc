/**
 * @file
 * AVX-512 IFMA butterflies: Shoup multiplies on the 52-bit multiplier.
 *
 * vpmadd52lo/hi multiply the low 52 bits of two lanes exactly, which is
 * IVE's hardware story in reverse: the paper's PEs keep 28-bit primes
 * so reductions are cheap; here the 52-bit datapath covers any modulus
 * below 2^50 with a 3-instruction lazy Shoup product, against ~12 for
 * the generic 64-bit split in kernels_avx512.cc:
 *
 *   approx = hi52(a * bs52)            with bs52 = floor(b * 2^52 / q)
 *   r      = (lo52(a*b) + lo52(approx*(2^52 - q))) mod 2^52
 *
 * For any a < 2^52 and q < 2^50 the true r = a*b - approx*q lies in
 * [0, 2q) (error term a*(b*2^52 mod q)/2^52 < q), and since r < 2^52
 * the mod-2^52 subtraction recovers it exactly. Lazy intermediates can differ
 * from the 2^64-Shoup backends by multiples of q, but the final
 * canonicalization erases that: outputs stay bit-identical.
 *
 * Both transforms run the shared AVX-512 schedule (avx512_ntt.hh) with
 * this product injected wherever NttTable found (2 log n + 1) q
 * (forward) or n q (inverse) below 2^52. Any other (q, n), including
 * null lane companions (q >= 2^50, where NttTable precomputes no
 * x2^52 companions, or n < simd::kNttBlock), routes back to the
 * generic avx512 entry.
 * Compiled with -mavx512ifma in its own TU; simd.cc patches these into
 * the avx512 table only when cpuid reports IFMA.
 */

#include <immintrin.h>

#include "poly/simd/avx512_ntt.hh"
#include "poly/simd/backends.hh"

namespace ive::simd::ifma {
namespace {

/**
 * Lazy 52-bit Shoup product in [0, 2q) for any a < 2^52, q < 2^50.
 * The subtraction rides the second low multiply: lo52(approx *
 * (2^52 - q)) is -approx * q mod 2^52, and the accumulated sum stays
 * below 2^53, so masking it to 52 bits leaves r.
 */
struct MulShoup52
{
    __m512i negQ;
    __m512i zero = _mm512_setzero_si512();
    __m512i mask52 =
        _mm512_set1_epi64(static_cast<long long>((u64{1} << 52) - 1));

    explicit MulShoup52(u64 modulus)
        : negQ(_mm512_set1_epi64(
              static_cast<long long>((u64{1} << 52) - modulus)))
    {
    }

    __m512i
    operator()(__m512i a, __m512i b, __m512i bs52) const
    {
        __m512i approx = _mm512_madd52hi_epu64(zero, a, bs52);
        __m512i t = _mm512_madd52lo_epu64(zero, a, b);
        t = _mm512_madd52lo_epu64(t, approx, negQ);
        return _mm512_and_si512(t, mask52);
    }
};

} // namespace

void
nttForwardLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb)
{
    if (tb.laneShoup52 == nullptr || !tb.unreduced52) {
        // Outside the 52-bit datapath or its unreduced bound, or
        // below the block size.
        kAvx512Kernels.nttForwardLazy(a, n, mod, tb);
        return;
    }
    const u64 q = mod.value();
    avx512ntt::forward(a, n, q, tb.tw, tb.twShoup52, tb.lane,
                       tb.laneShoup52, (u64{1} << 52) / q, MulShoup52(q));
}

void
nttInverseLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb,
               u64 n_inv, u64 n_inv_shoup, u64 n_inv_shoup52)
{
    if (tb.laneShoup52 == nullptr || !tb.unreduced52) {
        kAvx512Kernels.nttInverseLazy(a, n, mod, tb, n_inv, n_inv_shoup,
                                      n_inv_shoup52);
        return;
    }
    const u64 q = mod.value();
    avx512ntt::inverse(a, n, q, tb.tw, tb.twShoup52, tb.lane,
                       tb.laneShoup52, n_inv, n_inv_shoup52, MulShoup52(q));
}

} // namespace ive::simd::ifma
