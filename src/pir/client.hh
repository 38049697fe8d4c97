/**
 * @file
 * PIR client: key material, query packing, response decoding.
 *
 * A single query ciphertext packs everything the server needs
 * (paper SII-C): coefficients 0..D0-1 carry the one-hot initial
 * dimension selector scaled by Delta, and for each subsequent dimension
 * t the l_rgsw coefficients at D0 + t*l + k carry bit_t * z^k, the
 * gadget rows from which the server assembles ct_RGSW selectors.
 *
 * Every packed value is pre-multiplied by inv(2^L) mod Q, cancelling
 * the factor-2 growth each ExpandQuery tree level introduces. (This is
 * the standard mod-Q inverse trick; dividing mod P is impossible here
 * because P = 2^32 is even.)
 */

#ifndef IVE_PIR_CLIENT_HH
#define IVE_PIR_CLIENT_HH

#include "bfv/automorphism.hh"
#include "bfv/noise.hh"
#include "bfv/rgsw.hh"
#include "pir/params.hh"

namespace ive {

/** Client-specific public material uploaded once per client. */
struct PirPublicKeys
{
    /** evk_r for r = N/2^t + 1, one per expansion-tree level. */
    std::vector<EvkKey> evks;
    /** RGSW(s), used to derive ct_RGSW selectors from BFV leaves. */
    RgswCiphertext rgswOfSecret;

    u64 byteSize(const HeContext &ctx) const;
    /** The first row with a side outside NTT form, e.g. "evk 2 row 0
     *  b-side"; empty when all are in the form serving requires. */
    std::string firstNonNttRow() const;
};

struct PirQuery
{
    BfvCiphertext ct;
};

class PirClient
{
  public:
    PirClient(const HeContext &ctx, const PirParams &params, u64 seed);

    const SecretKey &secretKey() const { return sk_; }

    PirPublicKeys genPublicKeys();

    /**
     * Query for database entry index (< D0 * 2^d). extra_inv_pow2
     * additionally divides the data slot by 2^extra_inv_pow2 (mod Q),
     * pre-compensating later scaling stages such as the KsPIR-like
     * response trace. Gadget slots are never rescaled.
     */
    PirQuery makeQuery(u64 entry_index, int extra_inv_pow2 = 0);

    /** Decrypts a response plane into mod-P coefficients. */
    std::vector<u64> decode(const BfvCiphertext &response) const;

    /** Noise report on a response, given the expected entry content. */
    NoiseReport responseNoise(const BfvCiphertext &response,
                              std::span<const u64> expected) const;

  private:
    const HeContext &ctx_;
    PirParams params_;
    Rng rng_;
    SecretKey sk_;
    std::vector<u64> inv2L_; ///< (2^L)^{-1} mod each q_i.
};

} // namespace ive

#endif // IVE_PIR_CLIENT_HH
