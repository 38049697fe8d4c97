/**
 * @file
 * PIR server: ExpandQuery, RowSel, ColTor (paper Fig. 2).
 *
 * Server-side pipeline per query:
 *   1. ExpandQuery: the packed query ciphertext is obliviously expanded
 *      through a binary tree of Subs operations into D0 one-hot BFV
 *      ciphertexts plus d*l gadget-row ciphertexts.
 *   2. Selector assembly: for each subsequent dimension, an RGSW
 *      selector is built from the gadget-row leaves; the a-side rows
 *      come from external products with the client's RGSW(s) key
 *      (the Onion-ORAM [34] technique).
 *   3. RowSel: a GEMM between the preprocessed DB (D/D0 x D0 matrix of
 *      NTT-form polynomials) and the D0 expanded ciphertexts.
 *   4. ColTor: a binary tournament of external products halves the
 *      2^d candidates per dimension; error grows only additively.
 *
 * Sharded serving (paper SV): an engine may serve slice `shard` of
 * `num_shards` of the whole Database — a power-of-two, boundary-aligned
 * run of the 2^d ColTor columns. processAllPlanes() then runs RowSel
 * over those columns plus only the local localLevels() tournament
 * levels and returns the unfused partials; the coordinator finishes
 * with colTor(entries, sel, sel_offset) over the gathered partials
 * using the remaining selectors. Because every fold the single server
 * would perform happens once, on the same operands, in the same order,
 * the sharded result is byte-identical to the monolithic one.
 */

#ifndef IVE_PIR_SERVER_HH
#define IVE_PIR_SERVER_HH

#include <atomic>
#include <memory>

#include "common/align.hh"
#include "pir/client.hh"
#include "pir/database.hh"

namespace ive {

/** Plain cumulative totals: a copyable view of one engine's
 *  ServerCounters. */
struct ServerCountersSnapshot
{
    u64 subsOps = 0;
    u64 externalProducts = 0;
    u64 plainMulAccs = 0;
};

/**
 * Mult/op tallies the server accumulates (validates model/complexity).
 * Atomic because independent queries / planes / RowSel columns run
 * concurrently on the thread pool; relaxed increments keep the exact
 * totals the complexity model checks against. Counters are cumulative
 * over the server's lifetime and only grow; callers compare snapshot()
 * deltas. Relaxed atomics carry no capability annotations by policy
 * (common/annotations.hh); snapshot() may tear across fields while
 * queries are in flight, which callers accept.
 */
struct ServerCounters
{
    std::atomic<u64> subsOps{0};
    std::atomic<u64> externalProducts{0};
    std::atomic<u64> plainMulAccs{0};

    ServerCountersSnapshot
    snapshot() const
    {
        return {subsOps.load(std::memory_order_relaxed),
                externalProducts.load(std::memory_order_relaxed),
                plainMulAccs.load(std::memory_order_relaxed)};
    }
};

/**
 * The one record-axis topology check: throws std::invalid_argument
 * unless num_shards is a power of two in [1, 2^d] (so every slice
 * covers whole ColTor columns on a tournament boundary) and
 * shard < num_shards.
 */
void checkShardTopology(const PirParams &params, u32 shard,
                        u32 num_shards);

class PirServer
{
  public:
    /**
     * Serves slice `shard` of `num_shards` of the whole database db,
     * which must outlive the engine; the default is the whole store.
     * keys (NTT form, as deserializePublicKeys checks) are shared with
     * every engine built from the same upload. Throws
     * std::invalid_argument on a bad topology (checkShardTopology).
     */
    PirServer(const HeContext &ctx, const PirParams &params,
              const Database *db,
              std::shared_ptr<const PirPublicKeys> keys, u32 shard = 0,
              u32 num_shards = 1);

    /**
     * Expands the query into usedLeaves() ciphertexts: [0, D0) are the
     * one-hot RowSel selectors, the rest are RGSW gadget rows. Branches
     * with no used leaves are pruned. On return selectors holds the RGSW
     * selectors for tournament levels [sel_from, sel_to), indexed
     * [0, d) with unbuilt slots empty; sel_from == sel_to expands only.
     * A selector leaf is final as soon as the last expansion level
     * produces it, so each last-level node task builds the selector
     * rows for the leaves it owns inside the same parallel batch,
     * instead of a full barrier between expansion and assembly.
     * Byte-identical to expanding alone followed by
     * buildSelectors(leaves, sel_from, sel_to).
     */
    std::vector<BfvCiphertext>
    expandAndSelect(const PirQuery &query, int sel_from, int sel_to,
                    std::vector<RgswCiphertext> &selectors) const;

    /**
     * Unfused reference for the selector half of expandAndSelect():
     * assembles the selectors for tournament levels [from, to) from
     * already-expanded leaves, indexed [0, d) with unbuilt slots empty.
     */
    std::vector<RgswCiphertext>
    buildSelectors(const std::vector<BfvCiphertext> &leaves, int from,
                   int to) const;

    /**
     * RowSel over one plane: one accumulated ciphertext per local
     * database column (2^d for the whole store, fewer for a slice).
     * One parallel pass of cols * split tasks, each owning one column's
     * contiguous range of residue planes and running their D0-long MAC
     * chains whole. split is 1 when the columns fill the lanes (or the
     * caller is a pool worker), else min(k, ceil(lanes / cols)).
     * Identical at any thread count.
     */
    std::vector<BfvCiphertext>
    rowSel(const std::vector<BfvCiphertext> &leaves, int plane = 0) const;

    /**
     * ColTor tournament in the default (BFS) order over 2^L entries,
     * using sel[sel_offset + t] at depth t. sel_offset = 0 folds the
     * leading dimensions; the coordinator's final fold over gathered
     * shard partials uses sel_offset = d - log2(num_shards).
     */
    BfvCiphertext colTor(std::vector<BfvCiphertext> entries,
                         const std::vector<RgswCiphertext> &sel,
                         int sel_offset = 0) const;

    /**
     * The pipeline for all planes (one expansion, shared): RowSel over
     * the local slice plus its localLevels() leading tournament levels.
     * For the whole store that is the complete answer; for a shard it
     * is the unfused partial the coordinator folds.
     */
    std::vector<BfvCiphertext> processAllPlanes(const PirQuery &query)
        const;

    /** ColTor columns the local slice covers: 2^d / numShards(). */
    u64 localColumns() const;

    /** Tournament levels the local slice folds: log2(localColumns). */
    int localLevels() const;

    u32 shard() const { return shard_; }
    u32 numShards() const { return numShards_; }

    const ServerCounters &counters() const { return counters_; }

    const HeContext &context() const { return ctx_; }
    const PirParams &params() const { return params_; }

  private:
    /**
     * One tournament step, in place: e0 <- e0 + sel (x) (e1 - e0).
     * The difference, digits and product all live in the calling
     * thread's PolyWorkspace, so a steady-state fold allocates nothing.
     */
    void foldPairInPlace(BfvCiphertext &e0, const BfvCiphertext &e1,
                         const RgswCiphertext &sel) const;

    /**
     * Builds both rows of selector slot (t, k) from its gadget-row
     * leaf: the b-row copies the leaf, the a-row is the external
     * product with RGSW(s). Shared by buildSelectors and the fused
     * last-expansion-level path.
     */
    void selectorRows(RgswCiphertext &sel, int k,
                      const BfvCiphertext &leaf) const;

    const HeContext &ctx_;
    PirParams params_;
    const Database *db_;
    std::shared_ptr<const PirPublicKeys> keys_; ///< Shared, immutable.
    u32 shard_;
    u32 numShards_;
    /** The context's expansion monomial per tree level. */
    std::vector<const ExpansionMonomial *> levelMonomials_;
    mutable ServerCounters counters_;
};

} // namespace ive

#endif // IVE_PIR_SERVER_HH
