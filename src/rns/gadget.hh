/**
 * @file
 * Gadget (base-z) decomposition used by external products and Subs.
 *
 * Dcp(x) produces digits x_0..x_{l-1} in [0, z) with
 * x = sum_k x_k * z^k, where z = 2^logZ and z^l >= Q (paper SII-D).
 * IVE evaluates with z = 2^14..2^22, l = 5..8; the functional default
 * uses a finer base for the key-switching gadget (see DESIGN.md).
 */

#ifndef IVE_RNS_GADGET_HH
#define IVE_RNS_GADGET_HH

#include <span>
#include <vector>

#include "common/types.hh"
#include "rns/rns_base.hh"

namespace ive {

class Gadget
{
  public:
    /** logZ: log2 of the decomposition base; ell: digit count. */
    Gadget(const RnsBase *base, int log_z, int ell);

    int logZ() const { return logZ_; }
    int ell() const { return ell_; }
    u64 z() const { return u64{1} << logZ_; }

    /** Digit k of x: (x >> (k*logZ)) & (z-1). */
    u64
    digit(u128 x, int k) const
    {
        return static_cast<u64>(x >> (k * logZ_)) & (z() - 1);
    }

    /** All ell digits of x, least significant first. */
    void decompose(u128 x, std::span<u64> digits_out) const;

    /** Residues of z^k mod each q_i (z^k can exceed 64 bits). */
    std::span<const u64>
    zPowResidues(int k) const
    {
        return {zPow_.data() + static_cast<size_t>(k) * base_->size(),
                static_cast<size_t>(base_->size())};
    }

    const RnsBase *base() const { return base_; }

    /** The digit decomposer's view of this gadget over its basis. */
    simd::DigitPlan
    digitPlan() const
    {
        return base_->digitPlan(logZ_, ell_);
    }

  private:
    const RnsBase *base_;
    int logZ_;
    int ell_;
    std::vector<u64> zPow_; ///< ell x size() residues of z^k.
};

} // namespace ive

#endif // IVE_RNS_GADGET_HH
