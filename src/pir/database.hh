/**
 * @file
 * The server's (unencrypted) database, preprocessed for PIR.
 *
 * Each entry is a plaintext polynomial in R_P. Preprocessing applies
 * CRT + NTT in advance (paper SII-B "Preprocessing DB"), so RowSel is a
 * pure element-wise multiply-accumulate. Preprocessed storage costs
 * logQ/logP (< 3.5x) more than the raw database, exactly the trade the
 * paper makes.
 *
 * Entries are addressed as entry = k* * D0 + i*, where i* is the
 * initial-dimension index selected by RowSel and k* is the column index
 * selected by ColTor.
 *
 * A Database always holds the whole store. Engines share it read-only:
 * the registry's per-client engines and a shard coordinator's slice
 * and replica engines all read one Database, and a record-axis
 * shard (paper SV) is a property of the engine (PirServer's shard and
 * num_shards), not of the store.
 */

#ifndef IVE_PIR_DATABASE_HH
#define IVE_PIR_DATABASE_HH

#include <functional>
#include <vector>

#include "bfv/bfv.hh"
#include "pir/params.hh"

namespace ive {

class Database
{
  public:
    Database(const HeContext &ctx, const PirParams &params);

    /** Fills every entry from a generator (entry id, plane). */
    using Generator =
        std::function<std::vector<u64>(u64 entry, int plane)>;
    void fill(const Generator &gen);

    /**
     * Deterministic pseudo-random content (benches, tests). Content is
     * a pure function of (seed, entry, plane), independent of fill
     * order.
     */
    static Database random(const HeContext &ctx, const PirParams &params,
                           u64 seed);

    /** Sets one entry from mod-P coeffs; preprocesses it. */
    void setEntry(u64 entry, int plane, std::span<const u64> coeffs);

    /** Preprocessed (NTT-form, lifted to R_Q) entry polynomial. */
    const RnsPoly &entry(u64 entry, int plane = 0) const;

    /** Recovers the raw mod-P coefficients of an entry (iNTT + iCRT). */
    std::vector<u64> entryCoeffs(u64 entry, int plane = 0) const;

    u64 numEntries() const { return params_.numEntries(); }
    int planes() const { return params_.planes; }
    const PirParams &params() const { return params_; }

  private:
    u64 index(u64 entry, int plane) const;

    const HeContext &ctx_;
    PirParams params_;
    std::vector<RnsPoly> entries_; ///< plane-major: [plane][entry].
};

} // namespace ive

#endif // IVE_PIR_DATABASE_HH
