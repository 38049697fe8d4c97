/**
 * @file
 * RGSW ciphertexts and the external product (paper SII-D, Fig. 3).
 *
 * An RgswCiphertext of m is a 2 x 2l matrix of polynomials, stored as
 * 2l RLWE rows. Rows 0..l-1 carry m*z^k on the a-side (phase
 * e + m*z^k*s), rows l..2l-1 on the b-side (phase e + m*z^k). The
 * external product ct_RGSW (x) ct_BFV gadget-decomposes both halves of
 * the BFV ciphertext (iNTT -> iCRT -> bit extraction -> NTT, exactly
 * the hardware pipeline in Fig. 3) and accumulates a 2x2l matrix-vector
 * product, producing a BFV ciphertext with only *additive* error
 * growth.
 */

#ifndef IVE_BFV_RGSW_HH
#define IVE_BFV_RGSW_HH

#include <vector>

#include "bfv/bfv.hh"

namespace ive {

struct RgswCiphertext
{
    int ell = 0;
    std::vector<BfvCiphertext> rows; ///< 2*ell RLWE rows.

    static u64
    byteSize(const HeContext &ctx, int ell, double bits = 28.0)
    {
        return 2 * ell * BfvCiphertext::byteSize(ctx, bits);
    }
};

/**
 * Gadget-decomposes a coefficient-domain polynomial into ell NTT-domain
 * digit polynomials (the Dcp box of Fig. 3). Shared by external
 * products and Subs.
 */
std::vector<RnsPoly> decomposePoly(const HeContext &ctx,
                                   const Gadget &gadget,
                                   const RnsPoly &poly_coeff);

/**
 * Allocation-free decomposition: writes the ell digits into `digits`
 * (workspace-leased polys of the ring's shape; fully overwritten and
 * left in NTT domain). Needs no scratch.
 */
void decomposePolyInto(const HeContext &ctx, const Gadget &gadget,
                       const RnsPoly &poly_coeff,
                       std::span<RnsPoly> digits);

/** RGSW encryption of the constant m (0 or 1 for ColTor select bits). */
RgswCiphertext encryptRgswConst(const HeContext &ctx, const SecretKey &sk,
                                Rng &rng, u64 m);

/** RGSW encryption of an arbitrary ring element (e.g. the secret s). */
RgswCiphertext encryptRgswPoly(const HeContext &ctx, const SecretKey &sk,
                               Rng &rng, const RnsPoly &m_ntt);

/** External product ct_RGSW (x) ct_BFV -> ct_BFV. */
BfvCiphertext externalProduct(const HeContext &ctx,
                              const RgswCiphertext &rgsw,
                              const BfvCiphertext &ct);

/**
 * External product into a caller-owned ciphertext (`out` fully
 * overwritten; its polys must already have the ring's shape and NTT
 * tag; must not alias `ct`). All temporaries — iNTT copies, gadget
 * digits, MAC accumulators — come from `ws`, and the 2l-row sums
 * defer reduction across the whole chain (one Barrett per output word
 * for <= 32-bit primes), so a steady-state call performs no heap
 * allocation and far fewer reductions than the legacy wrapper did.
 */
void externalProductInto(const HeContext &ctx, const RgswCiphertext &rgsw,
                         const BfvCiphertext &ct, BfvCiphertext &out,
                         PolyWorkspace &ws);

/** Wire encoding: ell, then the 2*ell RLWE rows. */
void saveRgswCiphertext(ByteWriter &w, const RgswCiphertext &rgsw);

/**
 * Loads an RGSW ciphertext whose ell must match the context's RGSW
 * gadget (else SerializeError).
 */
RgswCiphertext loadRgswCiphertext(ByteReader &r, const HeContext &ctx);

} // namespace ive

#endif // IVE_BFV_RGSW_HH
