/**
 * @file
 * Schedule tests: validity of BFS/DFS/HS orders, working-set formulas,
 * and functional order-invariance of ColTor.
 */

#include <gtest/gtest.h>

#include "pir/schedule.hh"
#include "pir/server.hh"

using namespace ive;

class ScheduleValidity : public ::testing::TestWithParam<int>
{
};

TEST_P(ScheduleValidity, AllKindsValid)
{
    int depth = GetParam();
    for (ScheduleKind kind :
         {ScheduleKind::BFS, ScheduleKind::DFS, ScheduleKind::HS}) {
        for (bool dfs_subtree : {false, true}) {
            for (int h : {1, 2, 3, depth}) {
                ScheduleConfig cfg{kind, dfs_subtree, h};
                auto red = makeReductionSchedule(depth, cfg);
                EXPECT_TRUE(validateReductionSchedule(depth, red))
                    << cfg.name() << " depth=" << depth << " h=" << h;
                auto exp = makeExpansionSchedule(depth, cfg);
                EXPECT_TRUE(validateExpansionSchedule(depth, exp))
                    << cfg.name() << " depth=" << depth << " h=" << h;
                EXPECT_EQ(red.size(), (u64{1} << depth) - 1);
                EXPECT_EQ(exp.size(), (u64{1} << depth) - 1);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, ScheduleValidity,
                         ::testing::Values(1, 2, 3, 5, 8, 10));

TEST(Schedule, InvalidOrdersAreRejected)
{
    // Parent before children.
    std::vector<TreeOp> bad = {{1, 0}, {0, 0}, {0, 1}};
    EXPECT_FALSE(validateReductionSchedule(2, bad));
    // Duplicate op.
    std::vector<TreeOp> dup = {{0, 0}, {0, 0}, {1, 0}};
    EXPECT_FALSE(validateReductionSchedule(2, dup));
    // Wrong count.
    std::vector<TreeOp> short_sched = {{0, 0}};
    EXPECT_FALSE(validateReductionSchedule(2, short_sched));
}

TEST(Schedule, BfsOrderIsLevelByLevel)
{
    ScheduleConfig cfg{ScheduleKind::BFS, false, 0};
    auto ops = makeReductionSchedule(3, cfg);
    for (size_t i = 1; i < ops.size(); ++i)
        EXPECT_GE(ops[i].depth, ops[i - 1].depth);
}

TEST(Schedule, DfsFinishesFirstSubtreeBeforeSecond)
{
    ScheduleConfig cfg{ScheduleKind::DFS, true, 0};
    int depth = 3;
    auto ops = makeReductionSchedule(depth, cfg);
    // The op completing the root's left subtree (depth d-2, array
    // position 0) must appear before any op touching the right half of
    // the leaf array (positions >= 2^(d-1)).
    size_t left_done = ops.size(), first_right = ops.size();
    for (size_t i = 0; i < ops.size(); ++i) {
        u64 pos = ops[i].index << (ops[i].depth + 1);
        if (ops[i].depth == depth - 2 && pos == 0)
            left_done = std::min(left_done, i);
        if (pos >= (u64{1} << (depth - 1)))
            first_right = std::min(first_right, i);
    }
    ASSERT_LT(left_done, ops.size());
    EXPECT_LT(left_done, first_right);
}

TEST(Schedule, MaxSubtreeDepthFormulas)
{
    // Paper SIV-A: DFS working set = h*sel + (h+1)*ct; BFS working set
    // = h*sel + 2^(h-1)*ct. With the paper's l = 5 sizes (RGSW 1120 KB,
    // ct 112 KB) and 4 MB:
    u64 rgsw = 1120 * 1024, ct = 112 * 1024, cap = u64{4} << 20;
    int dfs = maxSubtreeDepth(cap, rgsw, ct, true, 0);
    int bfs = maxSubtreeDepth(cap, rgsw, ct, false, 0);
    EXPECT_EQ(dfs, 3); // 3*1120 + 4*112 = 3808 KB <= 4096
    EXPECT_EQ(bfs, 3); // 3*1120 + 4*112 = 3808 KB
    // DFS admits deeper subtrees than BFS once ct cost dominates.
    int dfs_evk = maxSubtreeDepth(cap, 573 * 1024, ct, true, 0);
    int bfs_evk = maxSubtreeDepth(cap, 573 * 1024, ct, false, 0);
    EXPECT_GT(dfs_evk, bfs_evk);
    // Dcp temp space (no reduction overlapping) shrinks the depth.
    int dfs_no_ro = maxSubtreeDepth(cap, rgsw, ct, true, 5 * ct);
    EXPECT_LT(dfs_no_ro, dfs);
    // Degenerate: nothing fits.
    EXPECT_EQ(maxSubtreeDepth(100, rgsw, ct, true, 0), 0);
}

TEST(Schedule, ColTorScheduleOrderInvariance)
{
    // Executing ColTor in BFS, DFS and HS orders must produce
    // bit-identical responses (exact arithmetic, no reordering error).
    PirParams params = PirParams::testSmall();
    params.he.n = 256;
    params.d0 = 4;
    params.d = 4;
    HeContext ctx(params.he);
    PirClient client(ctx, params, 31);
    Database db = Database::random(ctx, params, 32);
    PirServer server(ctx, params, &db,
                     std::make_shared<const PirPublicKeys>(
                         client.genPublicKeys()));

    u64 target = 37;
    PirQuery q = client.makeQuery(target);
    std::vector<RgswCiphertext> selectors;
    auto leaves = server.expandAndSelect(q, 0, params.d, selectors);
    auto entries = server.rowSel(leaves);
    BfvCiphertext bfs = server.colTor(entries, selectors);

    std::vector<std::vector<TreeOp>> orders;
    orders.push_back(makeReductionSchedule(
        params.d, {ScheduleKind::BFS, false, 0}));
    orders.push_back(makeReductionSchedule(
        params.d, {ScheduleKind::DFS, true, 0}));
    orders.push_back(makeReductionSchedule(
        params.d, {ScheduleKind::HS, true, 2}));
    orders.push_back(makeReductionSchedule(
        params.d, {ScheduleKind::HS, false, 3}));

    for (const auto &order : orders) {
        ASSERT_TRUE(validateReductionSchedule(params.d, order));
        // Op (t, j) folds e[2 * 2^t * j] with e[2 * 2^t * j + 2^t]
        // under level t's selector: a two-entry colTor at offset t.
        std::vector<BfvCiphertext> e = entries;
        for (const TreeOp &op : order) {
            u64 s = u64{1} << op.depth;
            u64 base = 2 * s * op.index;
            e[base] = server.colTor({e[base], e[base + s]}, selectors,
                                    op.depth);
        }
        EXPECT_EQ(e[0].a, bfs.a);
        EXPECT_EQ(e[0].b, bfs.b);
        EXPECT_EQ(client.decode(e[0]), db.entryCoeffs(target));
    }
}

TEST(Schedule, HsDegeneratesToDfsWhenSubtreeCoversTree)
{
    ScheduleConfig hs{ScheduleKind::HS, true, 8};
    ScheduleConfig dfs{ScheduleKind::DFS, true, 0};
    EXPECT_EQ(makeReductionSchedule(5, hs), makeReductionSchedule(5, dfs));
    EXPECT_EQ(makeExpansionSchedule(5, hs), makeExpansionSchedule(5, dfs));
}

TEST(Schedule, HsWithDepthOneIsBfs)
{
    ScheduleConfig hs{ScheduleKind::HS, true, 1};
    ScheduleConfig bfs{ScheduleKind::BFS, false, 0};
    EXPECT_EQ(makeReductionSchedule(4, hs), makeReductionSchedule(4, bfs));
}
