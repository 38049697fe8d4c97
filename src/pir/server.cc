#include "pir/server.hh"

#include <algorithm>
#include <optional>
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
 * planes, RowSel columns): a loop runs serially when its count cannot
 * fill the lanes and the caller is not already a pool worker, so the
 * parallelism inside each iteration (subsInto / externalProductInto /
 * decomposePolyInto, RowSel's row segments) engages at top level.
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
    const int nk = ring.k();
    const u64 words = ring.words();
    const u64 d0 = params_.d0;
    const u64 cols = localColumns();
    const u64 first = shard_ * cols * d0;

    // Each column's D0-long plainMulAcc chain runs as segs contiguous
    // row segments. Segment 0 accumulates in the column's output polys,
    // later segments in leased scratch; every segment ends as a
    // canonical plane (kernels::chainMac*: fused or strict by prime and
    // segment length), and a column merges its segments with modular
    // adds in ascending order. Columns run in passes of width columns
    // under the wide rule. When whole columns fill the lanes, segs and
    // width are 1, the passes spread over the pool, and the chain's one
    // reduction is the whole merge. When they cannot (shard slices,
    // small d), one pass holds every column and splits it into enough
    // segments that the pass's cols * segs tasks (about 2 * lanes) fill
    // the pool. Modular addition is associative, so the result is
    // identical at any segs and any thread count.
    const u64 lanes = static_cast<u64>(ThreadPool::global().size());
    const bool narrow = runsSerially(cols);
    const u64 segs = narrow ? std::min(d0, divCeil(2 * lanes, cols)) : 1;
    const u64 width = narrow ? cols : 1;

    std::vector<BfvCiphertext> out(cols);
    wideFor(cols / width, [&](u64 pass) {
        // Segments 1..segs-1 of each column own 2*words words, a side
        // then b, leased from the thread that runs the pass.
        std::optional<WordLease> part;
        if (segs > 1)
            part.emplace(PolyWorkspace::local(),
                         width * (segs - 1) * 2 * words);
        auto partial = [&](u64 j, u64 s) {
            return part->data() + (j * (segs - 1) + s - 1) * 2 * words;
        };
        parallelFor(0, width * segs, [&](u64 t) {
            const u64 j = t / segs;
            const u64 s = t % segs;
            BfvCiphertext &col = out[pass * width + j];
            u64 *acc_a;
            u64 *acc_b;
            if (s == 0) {
                col.a = RnsPoly(ring, Domain::Ntt);
                col.b = RnsPoly(ring, Domain::Ntt);
                acc_a = col.a.residues(0).data();
                acc_b = col.b.residues(0).data();
            } else {
                acc_a = partial(j, s);
                acc_b = acc_a + words;
            }
            // Boundaries depend only on (d0, segs); segs <= d0 keeps
            // every segment non-empty.
            const u64 lo = s * d0 / segs;
            const u64 hi = (s + 1) * d0 / segs;
            const u64 row0 = first + (pass * width + j) * d0;
            for (u64 i = lo; i < hi; ++i) {
                const RnsPoly &entry = db_->entry(row0 + i, plane);
                const BfvCiphertext &leaf = leaves[i];
                for (int p = 0; p < nk; ++p) {
                    const Modulus &mod = ring.base.modulus(p);
                    const u64 off = static_cast<u64>(p) * n;
                    const u64 *pe = entry.residues(p).data();
                    kernels::chainMacPair(mod, hi - lo, n, acc_a + off,
                                          acc_b + off, pe,
                                          leaf.a.residues(p).data(),
                                          leaf.b.residues(p).data(),
                                          i == lo, i == lo);
                }
            }
            for (int p = 0; p < nk; ++p) {
                const Modulus &mod = ring.base.modulus(p);
                const u64 off = static_cast<u64>(p) * n;
                kernels::chainMacFinish(mod, hi - lo, n, acc_a + off);
                kernels::chainMacFinish(mod, hi - lo, n, acc_b + off);
            }
        });
        if (segs == 1)
            return;

        // One task per (column, side) output polynomial, so the narrow
        // pass's width * 2 outputs spread over the pool.
        parallelFor(0, width * 2, [&](u64 t) {
            const u64 j = t / 2;
            BfvCiphertext &col = out[pass * width + j];
            RnsPoly &poly = t % 2 == 0 ? col.a : col.b;
            for (u64 s = 1; s < segs; ++s) {
                const u64 *src = partial(j, s) + t % 2 * words;
                for (int p = 0; p < nk; ++p)
                    kernels::addVec(poly.residues(p).data(),
                                    src + static_cast<u64>(p) * n, n,
                                    ring.base.modulus(p).value());
            }
        });
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
