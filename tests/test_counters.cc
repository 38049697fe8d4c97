/**
 * @file
 * Cross-validation of the analytic complexity model (model/complexity)
 * against the functional server's operation counters.
 */

#include <gtest/gtest.h>

#include "model/complexity.hh"
#include "pir/server.hh"

using namespace ive;

TEST(Counters, ServerOpCountsMatchModel)
{
    PirParams params = PirParams::testSmall();
    params.he.n = 256;
    params.d0 = 16;
    params.d = 3;
    HeContext ctx(params.he);
    PirClient client(ctx, params, 1);
    Database db = Database::random(ctx, params, 2);
    PirServer server(ctx, params, &db,
                     std::make_shared<const PirPublicKeys>(
                         client.genPublicKeys()));

    server.resetCounters();
    PirQuery q = client.makeQuery(5);
    (void)server.processAllPlanes(q);

    const ServerCounters &c = server.counters();
    EXPECT_EQ(c.subsOps, expansionSubsCount(params));
    // External products: selector assembly (d * ellRgsw via RGSW(s))
    // plus the tournament (2^d - 1).
    u64 expected_ext = static_cast<u64>(params.d) * params.he.ellRgsw +
                       ((u64{1} << params.d) - 1);
    EXPECT_EQ(c.externalProducts, expected_ext);
    // RowSel accumulations: one per database entry.
    EXPECT_EQ(c.plainMulAccs, params.numEntries());
}

TEST(Counters, ComplexityScalesLinearlyWithEntries)
{
    PirParams a = PirParams::paperPerf(u64{2} << 30);
    PirParams b = PirParams::paperPerf(u64{8} << 30);
    StepComplexity ca = complexity(a);
    StepComplexity cb = complexity(b);
    // RowSel mults scale with the DB size (4x here).
    EXPECT_NEAR(cb.rowsel.total() / ca.rowsel.total(), 4.0, 0.01);
    // ExpandQuery is almost independent of the DB size.
    EXPECT_LT(cb.expand.total() / ca.expand.total(), 1.2);
}

TEST(Counters, ExpansionSubsCountPrunedTree)
{
    PirParams p = PirParams::testSmall();
    p.he.n = 1024;
    p.d0 = 16;
    p.d = 2; // used = 16 + 2*8 = 32, depth 5
    // Levels: 1+2+4+8+16 = 31 subs (tree fully used).
    EXPECT_EQ(expansionSubsCount(p), 31u);

    p.d0 = 16;
    p.d = 0; // used = 16, depth 4: 1+2+4+8 = 15
    EXPECT_EQ(expansionSubsCount(p), 15u);
}
