/**
 * @file
 * Residue number system over the ciphertext modulus Q = q0*q1*...*q_{k-1}.
 *
 * Implements CRT decomposition (Eq. 2 of the paper) and iCRT
 * reconstruction (Eq. 3). IVE uses four ~28-bit primes so Q < 2^112 and
 * every intermediate fits native 128-bit arithmetic; the class asserts
 * this limit so the invariant cannot silently break.
 */

#ifndef IVE_RNS_RNS_BASE_HH
#define IVE_RNS_RNS_BASE_HH

#include <span>
#include <vector>

#include "common/types.hh"
#include "modmath/modulus.hh"
#include "poly/simd/simd.hh"

namespace ive {

class RnsBase
{
  public:
    explicit RnsBase(const std::vector<u64> &primes);

    int size() const { return static_cast<int>(moduli_.size()); }
    const Modulus &modulus(int i) const { return moduli_[i]; }
    const std::vector<Modulus> &moduli() const { return moduli_; }

    /** Q as a 128-bit integer. */
    u128 bigQ() const { return q_; }

    /** log2(Q), for noise-budget accounting. */
    double logQ() const { return logQ_; }

    /** CRT: residues of a 128-bit value (Eq. 2). */
    void toRns(u128 x, std::span<u64> out) const;

    /** CRT of a small signed value (noise, plaintext digits). */
    void toRnsSigned(i64 x, std::span<u64> out) const;

    /** iCRT: reconstructs x in [0, Q) from residues (Eq. 3). */
    u128 fromRns(std::span<const u64> residues) const;

    /** Centered representative in (-Q/2, Q/2]. */
    i128 centered(u128 x) const;

    /**
     * Residues of floor(Q / p), the BFV scaling factor Delta for
     * plaintext modulus p.
     */
    std::vector<u64> deltaResidues(u64 p) const;

    /** floor(Q / p) as a 128-bit value. */
    u128 delta(u64 p) const { return q_ / p; }

    /** Residues of x^{-1} mod Q for x coprime to Q. */
    std::vector<u64> inverseResidues(u64 x) const;

    /** (Q/q_i) mod q_j table access, used by iCRT hardware model. */
    u64 qHatInv(int i) const { return qHatInvModQi_[i]; }

    /**
     * The digit decomposer's plan for a base-2^log_z, ell-digit gadget
     * over this basis: pointers into this basis's iCRT tables and its
     * Garner tables (null unless every prime is below 2^32).
     */
    simd::DigitPlan digitPlan(int log_z, int ell) const;

  private:
    std::vector<Modulus> moduli_;
    u128 q_ = 1;
    double logQ_ = 0.0;
    std::vector<u128> qHat_;         ///< Q / q_i.
    std::vector<u64> qHatInvModQi_;  ///< (Q/q_i)^{-1} mod q_i.
    std::vector<u64> qHatInvShoup_;  ///< x2^64 companions of the above.
    /** Garner mixed-radix constants, rows 1..k-1 packed (layout in
     *  simd::DigitPlan), and their floor(c * 2^32 / q_i) companions. */
    std::vector<u64> garner_;
    std::vector<u64> garnerShoup32_;
};

} // namespace ive

#endif // IVE_RNS_RNS_BASE_HH
