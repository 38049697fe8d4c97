#include "rns/gadget.hh"

#include "common/logging.hh"

namespace ive {

Gadget::Gadget(const RnsBase *base, int log_z, int ell)
    : base_(base), logZ_(log_z), ell_(ell)
{
    ive_assert(base != nullptr);
    ive_assert(log_z >= 1 && log_z <= simd::kDigitMaxLogZ);
    ive_assert(ell >= 1 && ell <= simd::kMaxDigits);
    // z^ell must cover Q so decomposition is exact.
    ive_assert(static_cast<double>(log_z) * ell >= base->logQ());

    int k_moduli = base->size();
    zPow_.resize(static_cast<size_t>(ell) * k_moduli);
    for (int i = 0; i < k_moduli; ++i) {
        const Modulus &mod = base->modulus(i);
        u64 z_mod = (u64{1} << log_z) % mod.value();
        u64 acc = 1;
        for (int k = 0; k < ell; ++k) {
            zPow_[static_cast<size_t>(k) * k_moduli + i] = acc;
            acc = mod.mul(acc, z_mod);
        }
    }
}

void
Gadget::decompose(u128 x, std::span<u64> digits_out) const
{
    ive_assert(static_cast<int>(digits_out.size()) == ell_);
    u64 mask = z() - 1;
    for (int k = 0; k < ell_; ++k) {
        digits_out[k] = static_cast<u64>(x) & mask;
        x >>= logZ_;
    }
    // Digits must reconstruct x exactly (z^ell >= Q guarantees it).
    ive_assert(x == 0);
}

} // namespace ive
