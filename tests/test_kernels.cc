/**
 * @file
 * Differential tests for the lazy-reduction kernel layer
 * (poly/kernels.hh) and the PolyWorkspace zero-allocation property.
 *
 * Every lazy kernel is pitted against its strict reference across ring
 * degrees, prime widths (28-bit Solinas, the 31/32-bit fused-MAC
 * boundary, ~60-bit fallback primes) and adversarial values at the
 * edges of the lazy ranges (q-1, near 2q and 4q for the raw Shoup
 * product; maximal residues for the MAC chains). The serving-path
 * fixtures of test_golden pin byte-identity end to end; here we pin it
 * kernel by kernel.
 */

#include <gtest/gtest.h>

#include <array>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "modmath/primes.hh"
#include "pir/session.hh"
#include "poly/kernels.hh"
#include "poly/workspace.hh"

using namespace ive;

namespace {

/** Primes covering every dispatch class the kernels distinguish. */
std::vector<u64>
sweepPrimes(u64 n)
{
    std::vector<u64> primes;
    for (u64 q : kIvePrimes) // 28-bit Solinas (the paper's primes).
        primes.push_back(q);
    // 31/32-bit straddle the fused-MAC boundary; 45/60-bit take the
    // strict fallback everywhere.
    for (int bits : {31, 32, 33, 45, 60}) {
        auto found = findNttPrimes(bits, n, 1);
        EXPECT_FALSE(found.empty()) << "no " << bits << "-bit prime";
        if (!found.empty())
            primes.push_back(found[0]);
    }
    return primes;
}

std::vector<u64>
randomCanonical(u64 n, u64 q, Rng &rng)
{
    std::vector<u64> a(n);
    for (u64 &v : a)
        v = rng.uniform(q);
    return a;
}

} // namespace

TEST(Kernels, MulShoupLazyStaysBelowTwoQ)
{
    // The lazy butterflies feed mulShoupLazy values up to 4q and rely
    // on the output bound r < 2q with r = a*b mod q (mod q). Check the
    // adversarial corners for every prime class.
    for (u64 n : {u64{256}}) {
        for (u64 q : sweepPrimes(n)) {
            Modulus mod(q);
            std::vector<u64> as = {0,         1,         q - 1,
                                   q,         q + 1,     2 * q - 1,
                                   2 * q,     2 * q + 1, 4 * q - 1,
                                   ~u64{0}}; // Any u64 input is legal.
            std::vector<u64> bs = {1, 2, q / 2, q - 2, q - 1};
            for (u64 a : as) {
                for (u64 b : bs) {
                    u64 bs_pre = mod.shoupPrecompute(b);
                    u64 r = kernels::mulShoupLazy(a, b, bs_pre, q);
                    ASSERT_LT(r, 2 * q)
                        << "a=" << a << " b=" << b << " q=" << q;
                    ASSERT_EQ(r % q, mod.mul(mod.reduce(a), b))
                        << "a=" << a << " b=" << b << " q=" << q;
                }
            }
        }
    }
}

TEST(Kernels, LazyNttMatchesStrictAcrossPrimesAndDegrees)
{
    Rng rng(7);
    for (u64 n : {u64{8}, u64{64}, u64{256}, u64{1024}}) {
        for (u64 q : sweepPrimes(n)) {
            NttTable table(q, n);
            std::vector<u64> a = randomCanonical(n, q, rng);
            std::vector<u64> lazy = a, strict = a;

            table.forward(lazy);
            table.forwardStrict(strict);
            ASSERT_EQ(lazy, strict) << "forward n=" << n << " q=" << q;

            table.inverse(lazy);
            table.inverseStrict(strict);
            ASSERT_EQ(lazy, strict) << "inverse n=" << n << " q=" << q;
            ASSERT_EQ(lazy, a) << "roundtrip n=" << n << " q=" << q;
        }
    }
}

TEST(Kernels, LazyNttAdversarialResidues)
{
    // All-maximal and step patterns push every butterfly to the top of
    // its [0, 4q) / [0, 2q) ranges.
    for (u64 n : {u64{64}, u64{1024}}) {
        for (u64 q : sweepPrimes(n)) {
            NttTable table(q, n);
            std::vector<std::vector<u64>> patterns;
            patterns.push_back(std::vector<u64>(n, q - 1));
            patterns.push_back(std::vector<u64>(n, 0));
            std::vector<u64> step(n);
            for (u64 i = 0; i < n; ++i)
                step[i] = (i % 2) ? q - 1 : 0;
            patterns.push_back(step);
            for (const auto &a : patterns) {
                std::vector<u64> lazy = a, strict = a;
                table.forward(lazy);
                table.forwardStrict(strict);
                ASSERT_EQ(lazy, strict) << "n=" << n << " q=" << q;
                table.inverse(lazy);
                table.inverseStrict(strict);
                ASSERT_EQ(lazy, strict) << "n=" << n << " q=" << q;
            }
        }
    }
}

TEST(Kernels, FusedMacOkBoundary)
{
    // A fused chain needs (q - 1)^2 * links + q < 2^64: about 960
    // links for the paper primes, a single link just below 2^32, and
    // none at or above 2^32.
    const Modulus ive(kIvePrimes.back());
    const u64 ive_max = kernels::fusedMacMaxChain(ive.value());
    EXPECT_GE(ive_max, 900u);
    EXPECT_LE(ive_max, 1100u);
    EXPECT_TRUE(kernels::fusedMacOk(ive, 256));
    EXPECT_TRUE(kernels::fusedMacOk(ive, ive_max));
    EXPECT_FALSE(kernels::fusedMacOk(ive, ive_max + 1));
    const u128 edge = static_cast<u128>(ive.value() - 1) *
                      (ive.value() - 1);
    EXPECT_LT(edge * ive_max + ive.value(), u128{1} << 64);
    EXPECT_GE(edge * (ive_max + 1) + ive.value(), u128{1} << 64);

    u64 below = findNttPrimes(32, 256, 1)[0];
    ASSERT_LT(below, u64{1} << 32);
    EXPECT_TRUE(kernels::fusedMacOk(Modulus(below), 1));
    EXPECT_FALSE(kernels::fusedMacOk(Modulus(below), 2));
    u64 above = findNttPrimes(33, 256, 1)[0];
    ASSERT_GE(above, u64{1} << 32);
    EXPECT_FALSE(kernels::fusedMacOk(Modulus(above), 1));
}

namespace {

/**
 * Runs two chains of `links` links through kernels::chainMacPair on
 * top of `addend` (or storing the first link when addend is empty),
 * sharing each link's first operand. Chains at or past the fused edge
 * use q - 1 operands throughout, the largest sum the bound admits;
 * shorter chains alternate maximal and random links. Returns both
 * results, then their strict per-product references.
 */
std::array<std::vector<u64>, 4>
runChain(const Modulus &mod, u64 links, u64 n,
         const std::vector<u64> &addend, Rng &rng)
{
    const u64 q = mod.value();
    std::vector<u64> dst0 = addend.empty() ? std::vector<u64>(n, ~u64{0})
                                           : addend;
    std::vector<u64> dst1 = dst0;
    std::vector<u64> strict0 =
        addend.empty() ? std::vector<u64>(n, 0) : addend;
    std::vector<u64> strict1 = strict0;
    for (u64 c = 0; c < links; ++c) {
        std::vector<u64> a(n, q - 1), b0(n, q - 1), b1(n, q - 1);
        if (links < kernels::fusedMacMaxChain(q) && c % 2 == 1) {
            a = randomCanonical(n, q, rng);
            b0 = randomCanonical(n, q, rng);
            b1 = randomCanonical(n, q, rng);
        }
        const bool store = c == 0 && addend.empty();
        kernels::chainMacPair(mod, links, n, dst0.data(), dst1.data(),
                              a.data(), b0.data(), b1.data(), store,
                              store);
        kernels::mulAccVec(strict0.data(), a.data(), b0.data(), n, mod);
        kernels::mulAccVec(strict1.data(), a.data(), b1.data(), n, mod);
    }
    kernels::chainMacFinish(mod, links, n, dst0.data());
    kernels::chainMacFinish(mod, links, n, dst1.data());
    return {dst0, dst1, strict0, strict1};
}

} // namespace

TEST(Kernels, FusedMacChainMatchesStrict)
{
    // Chains up to exactly the longest fused length: the u64
    // accumulator must agree with per-product strict reduction after
    // its one deferred Barrett pass, with and without an addend. One
    // link more runs strict and stays exact.
    Rng rng(11);
    const u64 n = 64;
    for (u64 q : sweepPrimes(n)) {
        Modulus mod(q);
        const u64 max = kernels::fusedMacMaxChain(q);
        std::vector<u64> lengths = {1, 7, 16};
        if (max > 0 && max < 2048)
            lengths.insert(lengths.end(), {max, max + 1});
        for (u64 links : lengths) {
            for (bool with_addend : {false, true}) {
                std::vector<u64> addend;
                if (with_addend) {
                    addend = randomCanonical(n, q, rng);
                    addend[0] = q - 1;
                }
                auto [got0, got1, strict0, strict1] =
                    runChain(mod, links, n, addend, rng);
                ASSERT_EQ(got1, strict1)
                    << "q=" << q << " links=" << links
                    << " addend=" << with_addend;
                ASSERT_EQ(got0, strict0)
                    << "q=" << q << " links=" << links
                    << " fused=" << kernels::fusedMacOk(mod, links)
                    << " addend=" << with_addend;
            }
        }
    }
}

TEST(Kernels, VectorOpsMatchModulus)
{
    Rng rng(13);
    const u64 n = 128;
    for (u64 q : sweepPrimes(n)) {
        Modulus mod(q);
        std::vector<u64> a = randomCanonical(n, q, rng);
        std::vector<u64> b = randomCanonical(n, q, rng);
        a[0] = q - 1;
        b[0] = q - 1; // Adversarial corner.

        std::vector<u64> add = a, sub = a, mul = a, neg = a,
                         macc = a;
        kernels::addVec(add.data(), b.data(), n, q);
        kernels::subVec(sub.data(), b.data(), n, q);
        kernels::mulVec(mul.data(), b.data(), n, mod);
        kernels::negVec(neg.data(), n, q);
        kernels::mulAccVec(macc.data(), a.data(), b.data(), n, mod);
        for (u64 i = 0; i < n; ++i) {
            ASSERT_EQ(add[i], mod.add(a[i], b[i]));
            ASSERT_EQ(sub[i], mod.sub(a[i], b[i]));
            ASSERT_EQ(mul[i], mod.mul(a[i], b[i]));
            ASSERT_EQ(neg[i], mod.neg(a[i]));
            ASSERT_EQ(macc[i], mod.add(a[i], mod.mul(a[i], b[i])));
        }
    }
}

TEST(Kernels, LargePrimeStrictFallbackPipeline)
{
    // A full encrypt/Subs/external-product/decrypt pipeline over a ring
    // whose primes straddle the fused-MAC boundary exercises the mixed
    // fused/strict dispatch on every hot path at once.
    u64 n = 256;
    std::vector<u64> primes = {kIvePrimes[0], kIvePrimes[1],
                               findNttPrimes(45, n, 1)[0]};
    HeContextConfig cfg;
    cfg.n = n;
    cfg.primes = primes;
    cfg.plainModulus = u64{1} << 16;
    cfg.logZKs = 13;
    cfg.ellKs = 9;
    cfg.logZRgsw = 14;
    cfg.ellRgsw = 8;
    HeContext ctx(cfg);
    Rng rng(3);
    SecretKey sk(ctx, rng);

    std::vector<u64> plain(n);
    for (u64 i = 0; i < n; ++i)
        plain[i] = (i * 37 + 5) & (cfg.plainModulus - 1);
    BfvCiphertext ct = encryptPlain(ctx, sk, rng, plain);

    // RGSW(1) external product keeps the payload; decrypt must agree.
    RgswCiphertext one = encryptRgswConst(ctx, sk, rng, 1);
    BfvCiphertext prod = externalProduct(ctx, one, ct);
    EXPECT_EQ(decrypt(ctx, sk, prod), plain);
}

TEST(Workspace, SteadyStateAnswerIsAllocationFree)
{
    // Acceptance: a steady-state ServerSession::answer performs no
    // per-query RnsPoly heap allocations in the fold/external-product
    // path. The pool counters are process-wide; with a single-threaded
    // pool the accounting is deterministic.
    ThreadPool::setGlobalThreads(1);
    PirParams params = PirParams::testSmall();
    ClientSession client(params, 21);
    ServerSession session(client.paramsBlob());
    session.database().fill([&](u64 entry, int plane) {
        std::vector<u64> coeffs(params.he.n);
        for (u64 j = 0; j < params.he.n; ++j)
            coeffs[j] = (entry * 11 + static_cast<u64>(plane) + j) &
                        (params.he.plainModulus - 1);
        return coeffs;
    });
    session.ingestKeys(client.keyBlob());
    std::vector<u8> query = client.queryBlob(3);

    // Warm the pool: the first queries grow every free list to the
    // pipeline's high-water mark.
    std::vector<u8> want = session.answer(query);
    (void)session.answer(query);

    PolyWorkspace::Stats before = PolyWorkspace::stats();
    std::vector<u8> got;
    for (int i = 0; i < 3; ++i)
        got = session.answer(query);
    PolyWorkspace::Stats after = PolyWorkspace::stats();

    EXPECT_EQ(got, want); // Replays stay byte-identical.
    EXPECT_EQ(after.polyAllocs, before.polyAllocs)
        << "steady-state answer() allocated fresh scratch polynomials";
    EXPECT_EQ(after.bufAllocs, before.bufAllocs)
        << "steady-state answer() grew accumulator/scratch buffers";
    EXPECT_GT(after.polyReuses, before.polyReuses)
        << "hot path is not using the workspace pool";
}

TEST(Workspace, LeasesRecyclePerShape)
{
    Ring small(64, {kIvePrimes[0]});
    Ring big(128, {kIvePrimes[0], kIvePrimes[1]});
    PolyWorkspace &ws = PolyWorkspace::local();

    RnsPoly p_small = ws.takePoly(small, Domain::Coeff);
    RnsPoly p_big = ws.takePoly(big, Domain::Ntt);
    EXPECT_EQ(p_small.n(), 64u);
    EXPECT_EQ(p_big.k(), 2);
    EXPECT_TRUE(p_big.isNtt());
    ws.givePoly(std::move(p_small));
    ws.givePoly(std::move(p_big));

    PolyWorkspace::Stats before = PolyWorkspace::stats();
    RnsPoly again = ws.takePoly(small, Domain::Ntt);
    EXPECT_EQ(again.n(), 64u);
    EXPECT_EQ(again.k(), 1);
    EXPECT_TRUE(again.isNtt());
    PolyWorkspace::Stats after = PolyWorkspace::stats();
    EXPECT_EQ(after.polyAllocs, before.polyAllocs);
    EXPECT_EQ(after.polyReuses, before.polyReuses + 1);
    ws.givePoly(std::move(again));
}
