/**
 * @file
 * KsPIR-like baseline for Table IV.
 *
 * The paper compares IVE against KsPIR [67], characterized as relying
 * on "automorphism, key-switching, and external products". No open
 * implementation of KsPIR was available offline, so this module builds
 * a scheme from the same primitive family with a deliberately
 * key-switching-heavy profile (see DESIGN.md, substitutions):
 *
 *  - a finer initial dimension (D0 = 64), which deepens the external-
 *    product tournament relative to OnionPIR, and
 *  - a key-switching response-compression stage: a partial trace
 *    Tr_t(ct) = ct + Subs(ct, N/2^t + 1), t = 0..steps-1, which zeroes
 *    every coefficient not congruent to 0 mod 2^steps and scales the
 *    survivors by 2^steps. Records occupy only those coefficients, so
 *    the response carries N/2^steps coefficients of payload.
 *
 * The client pre-divides the data slots by 2^steps (mod Q) so the
 * trace's scaling cancels, mirroring the ExpandQuery inverse trick.
 */

#ifndef IVE_PIR_KSPIR_HH
#define IVE_PIR_KSPIR_HH

#include <memory>

#include "pir/server.hh"

namespace ive {

struct KsPirParams
{
    PirParams base;
    int traceSteps = 4; ///< Response compressed to n / 2^steps slots.

    /** Derives an OnionPIR-style base with D0 = 64 for db_bytes. */
    static KsPirParams forDbSize(u64 db_bytes);

    /** Coefficient stride carrying payload (2^traceSteps). */
    u64 slotStride() const { return u64{1} << traceSteps; }
    /** Payload coefficients per entry. */
    u64 slotsPerEntry() const { return base.he.n / slotStride(); }
};

/** Partial trace: keeps coefficients = 0 mod 2^steps, scaled 2^steps. */
BfvCiphertext partialTrace(const HeContext &ctx, const BfvCiphertext &ct,
                           const std::vector<EvkKey> &evks, int steps);

/**
 * End-to-end KsPIR-like instance owning client, database and server.
 * Entry payloads live at coefficient positions j * 2^traceSteps.
 */
class KsPir
{
  public:
    KsPir(const HeContext &ctx, const KsPirParams &params, u64 seed);

    /** Sets entry payload (slotsPerEntry() values mod P). */
    void setEntry(u64 entry, std::span<const u64> slots);
    /** Deterministic pseudo-random payloads for every entry. */
    void fillRandom(u64 seed);

    PirQuery makeQuery(u64 entry);
    BfvCiphertext answer(const PirQuery &query) const;
    /** Decodes the payload slots of the queried entry. */
    std::vector<u64> decode(const BfvCiphertext &response) const;

    /** Expected payload of an entry (for verification). */
    std::vector<u64> expectedSlots(u64 entry) const;

    const KsPirParams &params() const { return params_; }
    const PirServer &server() const { return *server_; }

  private:
    const HeContext &ctx_;
    KsPirParams params_;
    std::unique_ptr<PirClient> client_;
    std::unique_ptr<Database> db_;
    std::unique_ptr<PirServer> server_;
    std::shared_ptr<const PirPublicKeys> keys_; ///< Shared with server_.
};

} // namespace ive

#endif // IVE_PIR_KSPIR_HH
