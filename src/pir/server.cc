#include "pir/server.hh"

#include <algorithm>
#include <stdexcept>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/trace.hh"
#include "poly/kernels.hh"

namespace ive {

namespace {

/**
 * Serving-stage telemetry. Histograms time whole stage invocations;
 * the op counters mirror the per-instance ServerCounters into the
 * process-wide registry (ServerCounters stays the source of truth for
 * counters(), which tests pin exactly).
 */
struct StageMetrics
{
    obs::Histogram &expand;
    obs::Histogram &selectors;
    obs::Histogram &rowsel;
    obs::Histogram &fold;
    obs::Counter &subsOps;
    obs::Counter &externalProducts;
    obs::Counter &plainMulAccs;
};

StageMetrics &
stageMetrics()
{
    namespace n = obs::names;
    obs::Registry &r = obs::Registry::global();
    // Label variants of one family share the HELP header, so every
    // stage / op registers the same family-level help string.
    static StageMetrics m{
        r.histogram(n::kStageExpand, "serving stage latency, by stage"),
        r.histogram(n::kStageSelectors,
                    "serving stage latency, by stage"),
        r.histogram(n::kStageRowsel, "serving stage latency, by stage"),
        r.histogram(n::kStageFold, "serving stage latency, by stage"),
        r.counter(n::kOpsSubs, "pipeline operations executed, by op"),
        r.counter(n::kOpsExternalProduct,
                  "pipeline operations executed, by op"),
        r.counter(n::kOpsPlainMulAcc,
                  "pipeline operations executed, by op"),
    };
    return m;
}

/**
 * The wide rule for pipeline stages whose trip count can drop below
 * the pool size (early expansion levels, late tournament depths,
 * planes): a loop runs serially when its count cannot fill the lanes
 * and the caller is not already a pool worker, so the parallelism
 * inside each iteration (subsInto / externalProductInto /
 * decomposePolyInto) engages at top level. RowSel's columns take the
 * same test to decide whether to split by residue plane.
 */
bool
runsSerially(u64 count)
{
    return !ThreadPool::onWorkerThread() &&
           count < static_cast<u64>(ThreadPool::global().size());
}

/**
 * Outer-loop dispatch under the wide rule: serial, or across the pool
 * with the per-op layers inline. Each index writes only its own slots,
 * so results are byte-identical either way.
 */
void
wideFor(u64 count, const std::function<void(u64)> &fn)
{
    if (runsSerially(count)) {
        for (u64 i = 0; i < count; ++i)
            fn(i);
    } else {
        parallelFor(0, count, fn);
    }
}

} // namespace

void
checkShardTopology(const PirParams &params, u32 shard, u32 num_shards)
{
    // A slice must cover whole columns and sit on a tournament
    // boundary, or its local folds would pair entries the monolithic
    // ColTor never pairs.
    u64 cols = u64{1} << params.d;
    if (num_shards < 1 || !isPow2(num_shards) || u64{num_shards} > cols)
        throw std::invalid_argument(strprintf(
            "shard count %u must be a power of two in [1, 2^d = %llu]",
            num_shards, static_cast<unsigned long long>(cols)));
    if (shard >= num_shards)
        throw std::invalid_argument(
            strprintf("shard index %u out of range for %u shards",
                      shard, num_shards));
}

PirServer::PirServer(const HeContext &ctx, const PirParams &params,
                     const Database *db,
                     std::shared_ptr<const PirPublicKeys> keys, u32 shard,
                     u32 num_shards)
    : ctx_(ctx), params_(params), db_(db), keys_(std::move(keys)),
      shard_(shard), numShards_(num_shards)
{
    params_.validate();
    checkShardTopology(params_, shard_, numShards_);
    ive_assert(db_ != nullptr &&
               db_->numEntries() == params_.numEntries());
    // Key rows are used as they are, in NTT form; the decoder checks it.
    ive_assert(keys_ != nullptr &&
               static_cast<int>(keys_->evks.size()) >=
                   params_.expansionDepth() &&
               keys_->firstNonNttRow().empty());

    // The context builds each level's table once for all engines;
    // holding the pointers keeps its lock off the query path.
    for (int t = 0; t < params_.expansionDepth(); ++t)
        levelMonomials_.push_back(&ctx_.expansionMonomial(t));
}

u64
PirServer::localColumns() const
{
    return (u64{1} << params_.d) / numShards_;
}

int
PirServer::localLevels() const
{
    return log2Exact(localColumns());
}

std::vector<BfvCiphertext>
PirServer::expandAndSelect(const PirQuery &query, int sel_from,
                           int sel_to,
                           std::vector<RgswCiphertext> &selectors) const
{
    StageMetrics &sm = stageMetrics();
    obs::StageSpan span(&sm.expand, "expand");
    int depth = params_.expansionDepth();
    u64 used = params_.usedLeaves();
    ive_assert(sel_from >= 0 && sel_from <= sel_to &&
               sel_to <= params_.d);

    int ell = ctx_.gadgetRgsw().ell();
    const u64 sel_lo =
        params_.d0 + static_cast<u64>(sel_from) * ell;
    const u64 sel_hi = params_.d0 + static_cast<u64>(sel_to) * ell;
    selectors.assign(static_cast<size_t>(params_.d), RgswCiphertext{});
    for (int t = sel_from; t < sel_to; ++t) {
        selectors[static_cast<size_t>(t)].ell = ell;
        selectors[static_cast<size_t>(t)].rows.resize(
            2 * static_cast<size_t>(ell));
    }
    // A gadget-row leaf is final the moment the last level produces it,
    // so its selector rows can be built inside the producing task —
    // disjoint (t, k) slots per leaf, same values buildSelectors would
    // compute from the finished leaves.
    auto maybeSelect = [&](u64 leaf_idx, const BfvCiphertext &leaf) {
        if (leaf_idx < sel_lo || leaf_idx >= sel_hi)
            return;
        u64 off = leaf_idx - params_.d0;
        selectorRows(selectors[off / ell],
                     static_cast<int>(off % ell), leaf);
    };

    // Level-order expansion with pruning: a node with path index idx at
    // level t covers coefficients congruent to idx mod 2^t; it is
    // needed iff idx < usedLeaves.
    struct Node
    {
        BfvCiphertext ct;
        u64 idx;
    };
    std::vector<Node> nodes;
    nodes.push_back({query.ct, 0});

    for (int t = 0; t < depth; ++t) {
        const bool last = t == depth - 1;
        // Children per node are independent; place them at offsets
        // computed up front so the parallel transform writes disjoint
        // slots and the result is identical at any thread count.
        std::vector<size_t> offset(nodes.size() + 1);
        offset[0] = 0;
        for (size_t i = 0; i < nodes.size(); ++i) {
            u64 odd_idx = nodes[i].idx + (u64{1} << t);
            offset[i + 1] = offset[i] + 1 + (odd_idx < used ? 1 : 0);
        }

        // Early levels have fewer nodes than lanes, so the wide path
        // runs them serially and each Subs parallelizes internally.
        std::vector<Node> next(offset.back());
        wideFor(nodes.size(), [&](u64 i) {
            Node &node = nodes[i];
            PolyWorkspace &ws = PolyWorkspace::local();
            CtLease rotated(ws, ctx_.ring());
            subsInto(ctx_, node.ct, keys_->evks[t], *rotated, ws);

            size_t slot = offset[i];
            u64 odd_idx = node.idx + (u64{1} << t);
            if (odd_idx < used) {
                // Odd branch: X^{-2^t} * (ct - Subs(ct, r)).
                BfvCiphertext odd = node.ct;
                subInPlace(ctx_, odd, *rotated);
                monomialMulInPlace(ctx_, odd, levelMonomials_[t]->ntt,
                                   levelMonomials_[t]->shoup);
                next[slot + 1] = {std::move(odd), odd_idx};
                if (last)
                    maybeSelect(odd_idx, next[slot + 1].ct);
            }
            // Even branch, in place: ct + Subs(ct, N/2^t + 1).
            addInPlace(ctx_, node.ct, *rotated);
            next[slot] = {std::move(node.ct), node.idx};
            if (last)
                maybeSelect(node.idx, next[slot].ct);
        });
        counters_.subsOps.fetch_add(nodes.size(),
                                    std::memory_order_relaxed);
        sm.subsOps.add(nodes.size());
        nodes = std::move(next);
    }
    if (depth == 0) {
        // Degenerate single-leaf tree: nothing overlapped with.
        for (auto &node : nodes)
            maybeSelect(node.idx, node.ct);
    }
    counters_.externalProducts.fetch_add(
        static_cast<u64>(sel_to - sel_from) * ell,
        std::memory_order_relaxed);
    sm.externalProducts.add(static_cast<u64>(sel_to - sel_from) * ell);

    std::vector<BfvCiphertext> leaves(used);
    for (auto &node : nodes) {
        ive_assert(node.idx < used);
        leaves[node.idx] = std::move(node.ct);
    }
    return leaves;
}

std::vector<RgswCiphertext>
PirServer::buildSelectors(const std::vector<BfvCiphertext> &leaves,
                          int from, int to) const
{
    StageMetrics &sm = stageMetrics();
    obs::StageSpan span(&sm.selectors, "selectors");
    ive_assert(from >= 0 && from <= to && to <= params_.d);
    const Gadget &g = ctx_.gadgetRgsw();
    int ell = g.ell();

    std::vector<RgswCiphertext> selectors(params_.d);
    for (int t = from; t < to; ++t) {
        selectors[t].ell = ell;
        selectors[t].rows.resize(2 * ell);
    }
    // Each (dimension, gadget-row) pair is independent.
    wideFor(static_cast<u64>(to - from) * ell, [&](u64 i) {
        int t = from + static_cast<int>(i / ell);
        int k = static_cast<int>(i % ell);
        selectorRows(selectors[t], k,
                     leaves[params_.d0 + static_cast<u64>(t) * ell + k]);
    });
    counters_.externalProducts.fetch_add(
        static_cast<u64>(to - from) * ell, std::memory_order_relaxed);
    sm.externalProducts.add(static_cast<u64>(to - from) * ell);
    return selectors;
}

void
PirServer::selectorRows(RgswCiphertext &sel, int k,
                        const BfvCiphertext &leaf) const
{
    int ell = sel.ell;
    // b-side row: the leaf's phase is bit * z^k already.
    sel.rows[static_cast<size_t>(ell + k)] = leaf;
    // a-side row: needs phase bit * z^k * s; external product with
    // RGSW(s) multiplies the phase by s. The row is a persistent
    // output; only the product's scratch is pooled.
    BfvCiphertext &row = sel.rows[static_cast<size_t>(k)];
    row.a = RnsPoly(ctx_.ring(), Domain::Ntt);
    row.b = RnsPoly(ctx_.ring(), Domain::Ntt);
    externalProductInto(ctx_, keys_->rgswOfSecret, leaf, row,
                        PolyWorkspace::local());
}

std::vector<BfvCiphertext>
PirServer::rowSel(const std::vector<BfvCiphertext> &leaves,
                  int plane) const
{
    StageMetrics &sm = stageMetrics();
    obs::StageSpan span(&sm.rowsel, "rowsel");
    ive_assert(leaves.size() >= params_.d0);
    const Ring &ring = ctx_.ring();
    const u64 n = ring.n;
    const u64 nk = static_cast<u64>(ring.k());
    const u64 d0 = params_.d0;
    const u64 cols = localColumns();
    const u64 first = shard_ * cols * d0;

    // Task t owns column t / split and its residue planes
    // [s * k / split, (s + 1) * k / split), s = t % split. Each plane's
    // D0-long MAC chain per side (fused or strict by prime) runs in
    // ascending row order and ends with chainMacFinish: the links a
    // whole column runs, so each output word has one writer and the
    // result is identical at any split and thread count. split is 1
    // when the columns fill the lanes or the caller is a pool worker;
    // otherwise a column splits into at most its k planes, so a host
    // with more lanes than cols * k leaves lanes idle in a narrow
    // RowSel (no benchmark host or workload is in that case).
    const u64 lanes = static_cast<u64>(ThreadPool::global().size());
    const u64 split =
        runsSerially(cols) ? std::min(nk, divCeil(lanes, cols)) : 1;

    std::vector<BfvCiphertext> out(cols);
    parallelFor(0, cols, [&](u64 c) {
        out[c].a = RnsPoly(ring, Domain::Ntt);
        out[c].b = RnsPoly(ring, Domain::Ntt);
    });
    parallelFor(0, cols * split, [&](u64 t) {
        const u64 c = t / split;
        const u64 s = t % split;
        const int lo = static_cast<int>(s * nk / split);
        const int hi = static_cast<int>((s + 1) * nk / split);
        BfvCiphertext &col = out[c];
        const u64 row0 = first + c * d0;
        for (u64 i = 0; i < d0; ++i) {
            const RnsPoly &entry = db_->entry(row0 + i, plane);
            const BfvCiphertext &leaf = leaves[i];
            for (int p = lo; p < hi; ++p) {
                kernels::chainMacPair(ring.base.modulus(p), d0, n,
                                      col.a.residues(p).data(),
                                      col.b.residues(p).data(),
                                      entry.residues(p).data(),
                                      leaf.a.residues(p).data(),
                                      leaf.b.residues(p).data(), i == 0,
                                      i == 0);
            }
        }
        for (int p = lo; p < hi; ++p) {
            const Modulus &mod = ring.base.modulus(p);
            kernels::chainMacFinish(mod, d0, n, col.a.residues(p).data());
            kernels::chainMacFinish(mod, d0, n, col.b.residues(p).data());
        }
    });
    counters_.plainMulAccs.fetch_add(cols * d0, std::memory_order_relaxed);
    sm.plainMulAccs.add(cols * d0);
    return out;
}

void
PirServer::foldPairInPlace(BfvCiphertext &e0, const BfvCiphertext &e1,
                           const RgswCiphertext &sel) const
{
    // Z = X + bit * (Y - X): bit = 0 keeps the even entry. Computed as
    // e0 += sel (x) (e1 - e0), entirely in pooled scratch.
    PolyWorkspace &ws = PolyWorkspace::local();
    CtLease diff(ws, ctx_.ring());
    diff->a = e1.a;
    diff->b = e1.b;
    subInPlace(ctx_, *diff, e0);
    CtLease z(ws, ctx_.ring());
    externalProductInto(ctx_, sel, *diff, *z, ws);
    addInPlace(ctx_, e0, *z);
}

BfvCiphertext
PirServer::colTor(std::vector<BfvCiphertext> entries,
                  const std::vector<RgswCiphertext> &sel,
                  int sel_offset) const
{
    StageMetrics &sm = stageMetrics();
    obs::StageSpan span(&sm.fold, "fold");
    ive_assert(isPow2(entries.size()));
    int levels = log2Exact(entries.size());
    ive_assert(sel_offset >= 0 &&
               sel_offset + levels <= static_cast<int>(sel.size()));

    // In-place tournament, paper Fig. 7 (ColTorBFS): at depth t the
    // stride is s = 2^t and e[2sj] <- fold(e[2sj], e[2sj + s]). With a
    // selector offset this is the tail of the monolithic tournament:
    // entry j stands for column j * 2^sel_offset's running partial.
    for (int t = 0; t < levels; ++t) {
        u64 s = u64{1} << t;
        u64 num = u64{1} << (levels - t - 1);
        // Folds within one depth touch disjoint entry pairs. Late
        // depths have 1-2 pairs, so the wide path runs them serially
        // and the external products parallelize internally.
        wideFor(num, [&](u64 j) {
            foldPairInPlace(entries[2 * s * j],
                            entries[2 * s * j + s],
                            sel[sel_offset + t]);
        });
        counters_.externalProducts.fetch_add(num,
                                             std::memory_order_relaxed);
        sm.externalProducts.add(num);
    }
    return entries[0];
}

std::vector<BfvCiphertext>
PirServer::processAllPlanes(const PirQuery &query) const
{
    std::vector<RgswCiphertext> selectors;
    std::vector<BfvCiphertext> leaves =
        expandAndSelect(query, 0, localLevels(), selectors);
    // Planes share the expansion but are otherwise independent. Every
    // shipped config has 1-2 planes — far fewer than lanes — so the
    // wide path matters: a plain parallelFor here would pin the whole
    // RowSel + fold below a single worker.
    std::vector<BfvCiphertext> out(params_.planes);
    wideFor(static_cast<u64>(params_.planes), [&](u64 plane) {
        std::vector<BfvCiphertext> entries =
            rowSel(leaves, static_cast<int>(plane));
        out[plane] = colTor(std::move(entries), selectors);
    });
    return out;
}

} // namespace ive
