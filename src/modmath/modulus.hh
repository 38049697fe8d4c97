/**
 * @file
 * Modular arithmetic over word-sized prime moduli.
 *
 * Modulus bundles a prime q (< 2^62) with Barrett precomputation for
 * fast reduction of 128-bit products, plus Shoup-style precomputed
 * multiplication for hot loops with a fixed multiplicand (NTT twiddles,
 * evk polynomials). IVE's evaluation moduli are 28-bit Solinas primes
 * (see modmath/solinas.hh); this class is generic so tests can sweep
 * other NTT-friendly primes.
 */

#ifndef IVE_MODMATH_MODULUS_HH
#define IVE_MODMATH_MODULUS_HH

#include "common/logging.hh"
#include "common/types.hh"

namespace ive {

/**
 * Largest modulus (exclusive) the library accepts. The bound is what
 * makes the Harvey lazy ranges representable: forward-NTT
 * intermediates reach 4q, which must fit a 64-bit word (q < 2^62),
 * and the lazy Shoup product's [0, 2q) output needs q < 2^63.
 * Compile-time-derived consequences are static_asserted in
 * poly/kernels.hh; wire.cc mirrors the bound for hostile param blobs.
 */
inline constexpr u64 kMaxModulus = u64{1} << 62;

class Modulus
{
  public:
    Modulus() = default;

    /** Constructs reduction tables for prime q in (1, 2^62). */
    explicit Modulus(u64 q);

    u64 value() const { return q_; }
    int bits() const { return bits_; }

    /** Reduces a full 128-bit value modulo q (Barrett). */
    u64
    reduce(u128 x) const
    {
        // Barrett: m = floor(2^128 / q) was split into hi:lo 64-bit
        // words; estimate t = floor(x * m / 2^128), then correct.
        u64 xlo = static_cast<u64>(x);
        u64 xhi = static_cast<u64>(x >> 64);
        // t = floor((xhi*2^64 + xlo) * (mhi*2^64 + mlo) / 2^128)
        u128 lo_m = static_cast<u128>(xlo) * mLo_;
        u128 mid1 = static_cast<u128>(xlo) * mHi_;
        u128 mid2 = static_cast<u128>(xhi) * mLo_;
        u128 hi_m = static_cast<u128>(xhi) * mHi_;
        u128 carry = (lo_m >> 64) + static_cast<u64>(mid1) +
                     static_cast<u64>(mid2);
        u128 t = hi_m + (mid1 >> 64) + (mid2 >> 64) + (carry >> 64);
        u64 r = static_cast<u64>(x - t * q_);
        while (r >= q_)
            r -= q_;
        return r;
    }

    u64
    add(u64 a, u64 b) const
    {
        u64 s = a + b;
        return s >= q_ ? s - q_ : s;
    }

    u64
    sub(u64 a, u64 b) const
    {
        return a >= b ? a - b : a + q_ - b;
    }

    u64 neg(u64 a) const { return a == 0 ? 0 : q_ - a; }

    u64
    mul(u64 a, u64 b) const
    {
        return reduce(static_cast<u128>(a) * b);
    }

    /** Precomputes floor(b * 2^64 / q) for Shoup multiplication. */
    u64
    shoupPrecompute(u64 b) const
    {
        return static_cast<u64>((static_cast<u128>(b) << 64) / q_);
    }

    /** a * b mod q using the Shoup precomputation bShoup for b. */
    u64
    mulShoup(u64 a, u64 b, u64 b_shoup) const
    {
        u64 approx = static_cast<u64>(
            (static_cast<u128>(a) * b_shoup) >> 64);
        u64 r = a * b - approx * q_;
        return r >= q_ ? r - q_ : r;
    }

    /**
     * High word of floor(2^128 / q), i.e. floor(2^64 / q): the
     * single-word Barrett constant the SIMD backends use to reduce
     * 64-bit values.
     */
    u64 barrettHi() const { return mHi_; }

    /** a^e mod q by square-and-multiply. */
    u64 pow(u64 a, u64 e) const;

    /** Multiplicative inverse of a (a != 0) via Fermat. */
    u64 inverse(u64 a) const;

    /** Centered representative of a in (-q/2, q/2]. */
    i64
    centered(u64 a) const
    {
        return a > q_ / 2 ? static_cast<i64>(a) - static_cast<i64>(q_)
                          : static_cast<i64>(a);
    }

  private:
    u64 q_ = 0;
    u64 mHi_ = 0; ///< High word of floor(2^128 / q).
    u64 mLo_ = 0; ///< Low word of floor(2^128 / q).
    int bits_ = 0;
};

} // namespace ive

#endif // IVE_MODMATH_MODULUS_HH
