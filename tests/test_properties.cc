/**
 * @file
 * Cross-cutting property tests: the stack must hold up away from the
 * paper's exact parameter point — generated (non-Solinas) NTT primes,
 * different RNS basis sizes, different plaintext moduli — and the
 * simulator must obey basic monotonicity laws.
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "modmath/primes.hh"
#include "modmath/solinas.hh"
#include "pir/server.hh"
#include "sim/accelerator.hh"
#include "system/cluster.hh"

using namespace ive;

namespace {

PirParams
paramsWithPrimes(const std::vector<u64> &primes, u64 plain_modulus,
                 int log_z_ks, int ell_ks, int log_z_rgsw, int ell_rgsw)
{
    PirParams p = PirParams::testSmall();
    p.he.n = 256;
    p.he.primes = primes;
    p.he.plainModulus = plain_modulus;
    p.he.logZKs = log_z_ks;
    p.he.ellKs = ell_ks;
    p.he.logZRgsw = log_z_rgsw;
    p.he.ellRgsw = ell_rgsw;
    p.d0 = 8;
    p.d = 2;
    return p;
}

void
expectRoundTrip(const PirParams &params, u64 seed)
{
    HeContext ctx(params.he);
    PirClient client(ctx, params, seed);
    Database db = Database::random(ctx, params, seed + 1);
    PirServer server(ctx, params, &db,
                     std::make_shared<const PirPublicKeys>(
                         client.genPublicKeys()));
    u64 target = (seed * 13) % params.numEntries();
    BfvCiphertext resp =
        server.processAllPlanes(client.makeQuery(target))[0];
    EXPECT_EQ(client.decode(resp), db.entryCoeffs(target));
}

} // namespace

TEST(Properties, PirWorksWithGeneratedNonSolinasPrimes)
{
    // Four fresh ~30-bit NTT primes (none of the special form).
    auto primes = findNttPrimes(30, 4096, 4);
    for (u64 q : primes)
        EXPECT_FALSE(isSolinas27(q));
    // logQ ~ 120 bits: scale the gadgets accordingly.
    expectRoundTrip(
        paramsWithPrimes(primes, u64{1} << 32, 14, 9, 16, 8), 3);
}

TEST(Properties, PirWorksWithThreePrimeBasis)
{
    // Drop to a 3-prime basis (logQ ~ 81 bits): P must shrink so Delta
    // keeps noise room.
    std::vector<u64> primes = {kIvePrimes[0], kIvePrimes[1],
                               kIvePrimes[2]};
    expectRoundTrip(
        paramsWithPrimes(primes, u64{1} << 16, 12, 7, 12, 7), 5);
}

TEST(Properties, PirWorksWithSmallPlaintextModulus)
{
    // P = 2^8: lots of noise budget, records of single bytes.
    expectRoundTrip(paramsWithPrimes({kIvePrimes.begin(),
                                      kIvePrimes.end()},
                                     256, 13, 9, 14, 8),
                    7);
}

TEST(Properties, DeterministicGivenSeeds)
{
    PirParams params = PirParams::testSmall();
    params.he.n = 256;
    auto run = [&] {
        HeContext ctx(params.he);
        PirClient client(ctx, params, 9);
        Database db = Database::random(ctx, params, 10);
        PirServer server(ctx, params, &db,
                         std::make_shared<const PirPublicKeys>(
                             client.genPublicKeys()));
        return client.decode(
            server.processAllPlanes(client.makeQuery(11))[0]);
    };
    EXPECT_EQ(run(), run());
}

TEST(Properties, SimLatencyMonotoneInDbSize)
{
    IveSimulator sim;
    double prev = 0.0;
    for (u64 gb : {1, 2, 4, 8, 16}) {
        auto r = sim.runDbSize(gb * GiB, 64);
        EXPECT_GT(r.latencySec, prev) << gb;
        prev = r.latencySec;
    }
}

TEST(Properties, SimThroughputMonotoneInBandwidth)
{
    PirParams p = PirParams::paperPerf(8 * GiB);
    SimOptions o;
    o.batch = 64;
    double prev = 0.0;
    for (double gbps : {512.0, 1024.0, 2048.0}) {
        IveConfig cfg;
        cfg.hbmBytesPerSec = gbps * GiB;
        auto r = simulatePir(p, cfg, o);
        EXPECT_GE(r.qps, prev * 0.999) << gbps;
        prev = r.qps;
    }
}

TEST(Properties, TrafficMonotoneInScratchpadCapacity)
{
    // More on-chip memory can only reduce replayed DRAM traffic.
    PirParams p = PirParams::paperPerf(8 * GiB);
    IveConfig cfg;
    ScheduleConfig hs{ScheduleKind::HS, true, 0};
    double prev = 1e300;
    for (u64 mb : {1, 2, 4, 8}) {
        auto t = coltorTraffic(p, cfg, mb * MiB, hs, true);
        EXPECT_LE(t.totalBytes(), prev * 1.001) << mb;
        prev = t.totalBytes();
    }
}

TEST(Properties, HsSubtreeDepthSweepNeverBeatsAutoBadly)
{
    // The capacity-derived subtree depth should be within 10% of the
    // best manually-chosen depth.
    PirParams p = PirParams::paperPerf(8 * GiB);
    IveConfig cfg;
    auto total = [&](int h) {
        ScheduleConfig sc{ScheduleKind::HS, true, h};
        return coltorTraffic(p, cfg, 4 * MiB, sc, true).totalBytes();
    };
    double best = 1e300;
    for (int h = 1; h <= 8; ++h)
        best = std::min(best, total(h));
    EXPECT_LE(total(0) /* auto */, best * 1.10);
}

TEST(Properties, LargerBatchNeverLowersClusterThroughput)
{
    IveConfig cfg;
    double prev = 0.0;
    for (int b : {32, 64, 128}) {
        auto r = simulateCluster(512 * GiB, 8, cfg, b);
        EXPECT_GE(r.qps, prev * 0.999) << b;
        prev = r.qps;
    }
}

TEST(Properties, QueriesForDifferentIndicesDiffer)
{
    // Sanity: distinct indices yield distinct query ciphertexts (they
    // are encryptions of different payloads under fresh randomness).
    PirParams params = PirParams::testSmall();
    params.he.n = 256;
    HeContext ctx(params.he);
    PirClient client(ctx, params, 21);
    auto q1 = client.makeQuery(1);
    auto q2 = client.makeQuery(2);
    EXPECT_FALSE(q1.ct.a == q2.ct.a && q1.ct.b == q2.ct.b);
}

TEST(Properties, ExpansionDepthCoversAllGeometries)
{
    for (u64 d0 : {1, 2, 16, 256}) {
        for (int d : {0, 1, 8, 16}) {
            PirParams p = PirParams::functionalDefault();
            p.d0 = d0;
            p.d = d;
            if (p.usedLeaves() > p.he.n)
                continue;
            p.validate();
            EXPECT_GE(u64{1} << p.expansionDepth(), p.usedLeaves());
            EXPECT_LE(u64{1} << p.expansionDepth(), p.he.n);
        }
    }
}
