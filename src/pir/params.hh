/**
 * @file
 * PIR protocol parameters (paper Table I).
 *
 * The database is interpreted as a (d+1)-dimensional structure
 * D0 x 2 x 2 x ... x 2 with D = D0 * 2^d plaintext entries per plane
 * (paper SII-C uses D1 = D2 = ... = 2, the practical choice from
 * Spiral/Respire). Records smaller than one plaintext are packed
 * side-by-side; records larger than one plaintext span multiple
 * "planes" that reuse one expanded query.
 */

#ifndef IVE_PIR_PARAMS_HH
#define IVE_PIR_PARAMS_HH

#include "bfv/context.hh"
#include "common/bitops.hh"

namespace ive {

struct PirParams
{
    HeContextConfig he;

    u64 d0 = 256;   ///< Initial dimension size (power of two).
    int d = 8;      ///< Number of subsequent binary dimensions.
    int planes = 1; ///< Plaintexts per record (for large records).

    /** Plaintext entries per plane: D = D0 * 2^d. */
    u64 numEntries() const { return d0 << d; }

    /** Payload bytes one plaintext holds (N coefficients mod P). */
    u64
    bytesPerPlaintext() const
    {
        return he.n * log2Exact(he.plainModulus) / 8;
    }

    /** Raw database bytes per plane. */
    u64 planeBytes() const { return numEntries() * bytesPerPlaintext(); }

    /** Raw database bytes across all planes. */
    u64 dbBytes() const { return planeBytes() * planes; }

    /** Expansion-tree leaves actually consumed. */
    u64
    usedLeaves() const
    {
        return d0 + static_cast<u64>(d) * he.ellRgsw;
    }

    /** Depth L of the ExpandQuery binary tree (2^L >= usedLeaves). */
    int expansionDepth() const { return log2Ceil(usedLeaves()); }

    /**
     * The one list of what a parameter set must satisfy: field ranges,
     * geometry (usedLeaves() <= N), primes below kMaxModulus that are
     * prime, NTT-friendly and distinct, 128-bit headroom, noise room,
     * and both gadgets within the digit decomposer's limits and
     * covering Q. A set that passes builds every HeContext, Database,
     * PirClient and PirServer without tripping a constructor assert.
     * Throws std::invalid_argument naming the first failed check; it
     * never asserts and never overflows, whatever the field values, so
     * the wire decoder runs it on hostile blobs.
     */
    void validate() const;

    /** Functional defaults: full OnionPIR pipeline that decrypts. */
    static PirParams functionalDefault();

    /** Small ring for fast unit tests (n = 1024). */
    static PirParams testSmall();

    /**
     * Performance-model parameters matching Table I (z = 2^22, l = 5);
     * not intended for functional decryption at full depth.
     */
    static PirParams paperPerf(u64 db_bytes, u64 d0 = 256);

    /** Derives d (and planes = 1) for a target raw DB size. */
    static PirParams forDbSize(u64 db_bytes, u64 d0 = 256);
};

} // namespace ive

#endif // IVE_PIR_PARAMS_HH
