/**
 * @file
 * HE context: ring, plaintext modulus, scaling factor, gadgets.
 *
 * Bundles everything the BFV/RGSW layer needs. Two gadgets coexist, as
 * in OnionPIR: a finer one for key-switching keys (evk, used by Subs
 * during ExpandQuery, where noise is amplified by the expansion tree)
 * and a coarser one for RGSW external products (ColTor).
 */

#ifndef IVE_BFV_CONTEXT_HH
#define IVE_BFV_CONTEXT_HH

#include <memory>
#include <vector>

#include "common/align.hh"
#include "common/annotations.hh"
#include "poly/poly.hh"
#include "rns/gadget.hh"

namespace ive {

struct HeContextConfig
{
    u64 n = 4096;
    std::vector<u64> primes; ///< Defaults to kIvePrimes when empty.
    u64 plainModulus = u64{1} << 32;
    int logZKs = 13;
    int ellKs = 9;
    int logZRgsw = 14;
    int ellRgsw = 8;
};

/**
 * Index maps of the automorphism X -> X^r, in the (pos << 1 | flip)
 * form RnsPoly::applyCoeffMap and simd::Kernels::applyCoeffMap take.
 */
struct AutomorphismMaps
{
    std::vector<u64> coeff; ///< RnsPoly::automorphismMap.
    std::vector<u64> ntt;   ///< RnsPoly::nttAutomorphismMap.
};

/**
 * NTT(X^{-2^t}), the multiplicand of ExpandQuery's odd branch at tree
 * level t, with its x2^64 Shoup companions (prime-major, k*n words) so
 * that multiply skips Barrett entirely.
 */
struct ExpansionMonomial
{
    RnsPoly ntt;
    AlignedU64Vec shoup;
};

class HeContext
{
  public:
    explicit HeContext(const HeContextConfig &cfg);

    HeContext(const HeContext &) = delete;
    HeContext &operator=(const HeContext &) = delete;

    const Ring &ring() const { return ring_; }
    u64 n() const { return ring_.n; }
    u64 plainModulus() const { return plainModulus_; }

    /** Residues of Delta = floor(Q/P). */
    std::span<const u64> deltaRns() const { return deltaRns_; }
    u128 delta() const { return delta_; }

    const Gadget &gadgetKs() const { return *gadgetKs_; }
    const Gadget &gadgetRgsw() const { return *gadgetRgsw_; }

    const HeContextConfig &config() const { return cfg_; }

    /**
     * The maps of X -> X^r (r odd, below 2n), built on first use and
     * kept for the context's lifetime, as Subs runs the same few
     * rotations on every query. Safe to call from any thread.
     */
    const AutomorphismMaps &automorphismMaps(u64 r) const
        IVE_EXCLUDES(mapsMu_);

    /**
     * The level-t expansion monomial (0 <= t < log2 n), built on first
     * use and kept for the context's lifetime, so every engine on one
     * context shares one copy. Client contexts never ask for it. Safe
     * to call from any thread.
     */
    const ExpansionMonomial &expansionMonomial(int t) const
        IVE_EXCLUDES(monomialsMu_);

  private:
    HeContextConfig cfg_;
    Ring ring_;
    u64 plainModulus_;
    u128 delta_;
    std::vector<u64> deltaRns_;
    std::unique_ptr<Gadget> gadgetKs_;
    std::unique_ptr<Gadget> gadgetRgsw_;
    mutable Mutex mapsMu_;
    /** Indexed by (r - 1) / 2; entries never move once built. */
    mutable std::vector<std::unique_ptr<const AutomorphismMaps>> maps_
        IVE_GUARDED_BY(mapsMu_);
    mutable Mutex monomialsMu_;
    /** Indexed by level; entries never move once built. */
    mutable std::vector<std::unique_ptr<const ExpansionMonomial>>
        monomials_ IVE_GUARDED_BY(monomialsMu_);
};

} // namespace ive

#endif // IVE_BFV_CONTEXT_HH
