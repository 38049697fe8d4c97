/**
 * @file
 * Negacyclic number-theoretic transform over one RNS prime.
 *
 * The transform maps a length-n coefficient vector of a polynomial in
 * Z_q[X]/(X^n + 1) to its evaluations at the odd powers of a primitive
 * 2n-th root of unity, so polynomial multiplication becomes an
 * element-wise product (paper SII-B). Implementation follows the
 * standard merged-twist Cooley-Tukey / Gentleman-Sande butterflies with
 * Shoup-precomputed twiddles.
 */

#ifndef IVE_NTT_NTT_HH
#define IVE_NTT_NTT_HH

#include <span>
#include <vector>

#include "common/types.hh"
#include "modmath/modulus.hh"
#include "poly/simd/simd.hh"

namespace ive {

class NttTable
{
  public:
    /** Builds twiddle tables for degree n (power of two) mod prime q. */
    NttTable(u64 q, u64 n);

    u64 n() const { return n_; }
    const Modulus &modulus() const { return mod_; }

    /**
     * In-place forward negacyclic NTT (coefficients -> evaluations).
     * Runs the lazy butterflies of the active SIMD backend
     * (poly/simd/simd.hh): Harvey's [0, 4q) intermediates, or on the
     * AVX-512 entries unreduced ones below simd::fwdUnreducedBound
     * where this table says the datapath holds it. Output values are
     * canonical and identical to the strict reference under every
     * backend.
     */
    void forward(std::span<u64> a) const;

    /** In-place inverse negacyclic NTT (evaluations -> coefficients). */
    void inverse(std::span<u64> a) const;

    /** Strict reference transforms (differential tests, benches). */
    void forwardStrict(std::span<u64> a) const;
    void inverseStrict(std::span<u64> a) const;

    // Backend-facing table access, so differential tests and the
    // per-ISA microbenchmarks can drive a *specific* backend instead
    // of the process-wide active one.
    simd::NttTwiddles forwardTwiddles() const;
    simd::NttTwiddles inverseTwiddles() const;
    u64 nInv() const { return nInv_; }
    u64 nInvShoup() const { return nInvShoup_; }
    u64 nInvShoup52() const { return nInvShoup52_; }

    /** Count of modular mults one forward transform performs. */
    u64 multCount() const { return n_ / 2 * logN_; }

  private:
    /**
     * One direction's twiddles: psi powers in bit-reversed index order
     * with x2^64 Shoup companions and, for q < 2^50 (where the bound
     * proof of the 52-bit lazy Shoup product holds), the x2^52
     * companions the AVX-512 IFMA butterflies consume; the 52-bit
     * vectors stay empty above the bound, which the dispatch reads as
     * "no IFMA path for this modulus". The lane vectors reorder the
     * last three stages' entries for the AVX-512 register block and
     * stay empty where no AVX-512 table runs or n < simd::kNttBlock.
     */
    struct Direction
    {
        std::vector<u64> tw;
        std::vector<u64> shoup;
        std::vector<u64> shoup52;
        std::vector<u64> lane;
        std::vector<u64> laneShoup;
        std::vector<u64> laneShoup52;
        bool unreduced52 = false;
        bool unreduced64 = false;

        simd::NttTwiddles view() const;
    };

    void build(Direction &dir, const std::vector<u64> &powers,
               u128 unreduced_bound, bool ifma, bool lanes);

    Modulus mod_;
    u64 n_;
    int logN_;
    u64 psi_;    ///< Primitive 2n-th root of unity.

    Direction fwd_;
    Direction inv_;
    u64 nInv_;
    u64 nInvShoup_;
    u64 nInvShoup52_;
};

} // namespace ive

#endif // IVE_NTT_NTT_HH
