/**
 * @file
 * Differential tests for the runtime-dispatched SIMD backends
 * (poly/simd/simd.hh): every compiled-in, CPU-runnable backend is
 * swept against the scalar reference — which is itself pinned against
 * the strict kernels — across ring degrees, prime widths (28-bit
 * Solinas through the 31/32-bit fused-MAC boundary to 45/60-bit
 * strict/non-IFMA fallbacks), unaligned tails, and adversarial values
 * at the q/2q/4q edges of the lazy ranges. The gadget digit decomposer
 * is swept over mixed-width bases, both shipped gadgets and logZ = 30,
 * with ranges off the lane grid and x = 0 / x = Q - 1 planted.
 *
 * The avx512 table is tested as resolved for this CPU: on IFMA parts
 * that covers the 52-bit vpmadd52 butterflies (plus their null-
 * twShoup52 fallback via the >= 2^50 primes); elsewhere the generic
 * 64-bit split path. On IFMA parts the unpatched table joins the sweep
 * too (simd::genericAvx512), so both butterfly families run here. The
 * transforms are also swept across the register block's degree
 * classes (below 64, one radix-2 pass, radix-4 passes) and at the
 * primes on either side of each unreduced-path bound.
 * End-to-end byte-identity per backend is pinned by
 * scripts/ci.sh, which runs the full tier-1 suite (including
 * test_golden) once under IVE_FORCE_ISA for every backend that probes
 * runnable on the CI machine, plus once on the default dispatch.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hh"
#include "modmath/primes.hh"
#include "ntt/ntt.hh"
#include "poly/kernels.hh"
#include "poly/poly.hh"
#include "poly/simd/backends.hh"
#include "poly/simd/simd.hh"
#include "rns/gadget.hh"
#include "rns/rns_base.hh"

using namespace ive;

namespace {

const simd::Kernels &
scalarK()
{
    return *simd::backend(simd::Isa::Scalar);
}

/**
 * Every backend this binary + CPU can run (scalar always), plus the
 * generic avx512 table where IFMA butterflies replace its transforms
 * in backend(Isa::Avx512).
 */
std::vector<const simd::Kernels *>
allBackends()
{
    std::vector<const simd::Kernels *> out;
    for (simd::Isa isa :
         {simd::Isa::Scalar, simd::Isa::Avx2, simd::Isa::Avx512}) {
        if (const simd::Kernels *k = simd::backend(isa))
            out.push_back(k);
    }
    const simd::Kernels *generic = simd::genericAvx512();
    if (generic != nullptr &&
        generic->nttForwardLazy !=
            simd::backend(simd::Isa::Avx512)->nttForwardLazy)
        out.push_back(generic);
    return out;
}

/** Primes covering every dispatch class the kernels distinguish. */
std::vector<u64>
sweepPrimes(u64 n)
{
    std::vector<u64> primes;
    for (u64 q : kIvePrimes) // 28-bit Solinas (the paper's primes).
        primes.push_back(q);
    // 31/32 straddle the fused-MAC boundary, 45 is fused-out but still
    // on the IFMA datapath, 60 exceeds the 2^50 IFMA bound too.
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

/** Canonical corners: zeros, q-1 runs, and a random mix. */
std::vector<std::vector<u64>>
cornerInputs(u64 n, u64 q, Rng &rng)
{
    std::vector<std::vector<u64>> cases;
    cases.emplace_back(n, 0);
    cases.emplace_back(n, q - 1);
    std::vector<u64> alt(n);
    for (u64 i = 0; i < n; ++i)
        alt[i] = (i % 2) ? q - 1 : 0;
    cases.push_back(std::move(alt));
    cases.push_back(randomCanonical(n, q, rng));
    return cases;
}

} // namespace

TEST(Simd, DispatchResolvesToRunnableBackend)
{
    const simd::Kernels &k = simd::active();
    bool found = false;
    for (const simd::Kernels *b : allBackends())
        found = found || b->name == k.name;
    EXPECT_TRUE(found) << "active backend " << k.name
                       << " not in runnable set";
    EXPECT_EQ(simd::backend(simd::bestSupportedIsa())->isa,
              simd::bestSupportedIsa());
    // Scalar must always resolve; log the pick for CI visibility.
    ASSERT_NE(simd::backend(simd::Isa::Scalar), nullptr);
    std::printf("active SIMD backend: %s (of %zu runnable)\n", k.name,
                allBackends().size());
}

TEST(Simd, NttMatchesStrictAcrossBackendsDegreesAndPrimes)
{
    Rng rng(2026);
    // Below 64 the vector entries fall back to scalar; 128 and 2048
    // add one radix-2 pass before the register block, 256 and 4096 run
    // radix-4 passes only.
    for (u64 n : {u64{8}, u64{16}, u64{32}, u64{64}, u64{128}, u64{256},
                  u64{2048}, u64{4096}}) {
        for (u64 q : sweepPrimes(n)) {
            NttTable table(q, n);
            for (auto &input : cornerInputs(n, q, rng)) {
                std::vector<u64> want = input;
                table.forwardStrict(want);
                for (const simd::Kernels *b : allBackends()) {
                    std::vector<u64> got = input;
                    b->nttForwardLazy(got.data(), n, table.modulus(),
                                      table.forwardTwiddles());
                    ASSERT_EQ(got, want)
                        << b->name << " fwd n=" << n << " q=" << q;
                    // Inverse of the forward image must return the
                    // input (and match the strict inverse exactly).
                    std::vector<u64> strict_inv = want;
                    table.inverseStrict(strict_inv);
                    b->nttInverseLazy(got.data(), n, table.modulus(),
                                      table.inverseTwiddles(),
                                      table.nInv(), table.nInvShoup(),
                                      table.nInvShoup52());
                    ASSERT_EQ(got, strict_inv)
                        << b->name << " inv n=" << n << " q=" << q;
                    ASSERT_EQ(got, input)
                        << b->name << " roundtrip n=" << n
                        << " q=" << q;
                }
            }
        }
    }
}

TEST(Simd, VectorOpsMatchScalarWithUnalignedTails)
{
    Rng rng(7);
    // Deliberately awkward lengths (tails of every residue class mod
    // the 4- and 8-lane widths) and a +1 pointer offset so the vector
    // loops run genuinely unaligned.
    for (u64 n : {u64{1}, u64{5}, u64{8}, u64{13}, u64{100}, u64{257}}) {
        for (u64 q : sweepPrimes(256)) {
            const Modulus mod(q);
            std::vector<u64> a0 = randomCanonical(n + 1, q, rng);
            std::vector<u64> b0 = randomCanonical(n + 1, q, rng);
            b0[1] = 0;
            if (n > 2)
                b0[2] = q - 1; // sub/neg corner values
            std::vector<u64> bs(n + 1);
            for (u64 i = 0; i < n + 1; ++i)
                bs[i] = mod.shoupPrecompute(b0[i]);
            std::vector<u64> d0 = randomCanonical(n + 1, q, rng);

            for (const simd::Kernels *b : allBackends()) {
                auto diff = [&](auto &&op) {
                    std::vector<u64> got = a0, want = a0;
                    op(*b, got.data() + 1);
                    op(scalarK(), want.data() + 1);
                    ASSERT_EQ(got, want)
                        << b->name << " n=" << n << " q=" << q;
                };
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.addVec(p, b0.data() + 1, n, q);
                });
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.subVec(p, b0.data() + 1, n, q);
                });
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.negVec(p, n, q);
                });
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.mulVec(p, b0.data() + 1, n, mod);
                });
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.mulShoupVec(p, b0.data() + 1, bs.data() + 1, n,
                                  q);
                });
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.mulAccVec(p, b0.data() + 1, d0.data() + 1, n,
                                mod);
                });
            }
        }
    }
}

TEST(Simd, MacAccumulateMatchesScalarWithCarryCorners)
{
    Rng rng(11);
    for (u64 n : {u64{4}, u64{9}, u64{64}, u64{1000}}) {
        // Inputs are < 2^32 by contract (fused-MAC residues).
        const u64 q32 = (u64{1} << 32) - 5;
        std::vector<u64> a = randomCanonical(n, q32, rng);
        std::vector<u64> b = randomCanonical(n, q32, rng);
        a[0] = q32 - 1;
        b[0] = q32 - 1; // maximal product
        std::vector<u128> base(n);
        for (u64 i = 0; i < n; ++i) {
            // Adversarial accumulator states: lo word on the brink of
            // carry, hi word at the 2^32 - 1 contract edge.
            u128 hi = static_cast<u128>((u64{1} << 32) - 1) << 64;
            switch (i % 4) {
            case 0:
                base[i] = 0;
                break;
            case 1:
                base[i] = ~u64{0};
                break;
            case 2:
                base[i] = hi | ~u64{0};
                break;
            default:
                base[i] = (static_cast<u128>(rng.uniform(u64{1} << 20))
                           << 64) |
                          rng.uniform(~u64{0});
                break;
            }
        }
        for (const simd::Kernels *k : allBackends()) {
            std::vector<u128> got = base, want = base;
            k->macAccumulate(got.data(), a.data(), b.data(), n);
            scalarK().macAccumulate(want.data(), a.data(),
                                               b.data(), n);
            ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                     n * sizeof(u128)))
                << k->name << " n=" << n;
        }
    }
}

TEST(Simd, MacChainMatchesScalarAcrossPrimeClasses)
{
    Rng rng(13);
    for (u64 n : {u64{3}, u64{8}, u64{11}, u64{512}}) {
        for (u64 q : sweepPrimes(256)) {
            const Modulus mod(q);
            // Pair links take residues below 2^32 (the fused class);
            // the reduction takes any u64, for every prime class.
            if (q < simd::kFusedMacModulusBound) {
                std::vector<u64> a = randomCanonical(n, q, rng);
                std::vector<u64> b0 = randomCanonical(n, q, rng);
                std::vector<u64> b1 = randomCanonical(n, q, rng);
                a[0] = b0[0] = b1[0] = q - 1; // maximal products
                const std::vector<u64> base0 = randomCanonical(n, q, rng);
                const std::vector<u64> base1 = randomCanonical(n, q, rng);
                for (const simd::Kernels *k : allBackends()) {
                    for (int flags = 0; flags < 4; ++flags) {
                        const bool s0 = flags & 1, s1 = flags & 2;
                        std::vector<u64> got0 = base0, got1 = base1;
                        std::vector<u64> want0 = base0, want1 = base1;
                        k->macChainPair(got0.data(), got1.data(), a.data(),
                                        b0.data(), b1.data(), n, s0, s1);
                        scalarK().macChainPair(want0.data(), want1.data(),
                                               a.data(), b0.data(),
                                               b1.data(), n, s0, s1);
                        ASSERT_EQ(got0, want0)
                            << k->name << " pair n=" << n << " q=" << q
                            << " s0=" << s0 << " s1=" << s1;
                        ASSERT_EQ(got1, want1)
                            << k->name << " pair n=" << n << " q=" << q
                            << " s0=" << s0 << " s1=" << s1;
                    }
                }
            }
            std::vector<u64> acc(n);
            for (u64 i = 0; i < n; ++i)
                acc[i] = (i % 3 == 0) ? ~u64{0} : rng.uniform(~u64{0});
            acc[n - 1] = 0;
            for (const simd::Kernels *k : allBackends()) {
                std::vector<u64> got = acc, want = acc;
                k->macChainReduce(got.data(), n, mod);
                scalarK().macChainReduce(want.data(), n, mod);
                ASSERT_EQ(got, want)
                    << k->name << " reduce n=" << n << " q=" << q;
                // The scalar reference itself must agree with the
                // general 128-bit Barrett.
                for (u64 i = 0; i < n; ++i)
                    ASSERT_EQ(want[i], mod.reduce(acc[i]));
            }
        }
    }
}

namespace {

/** One basis + gadget case for the digit decomposer sweep. */
struct DigitCase
{
    std::vector<u64> primes;
    int logZ;
};

/** Smallest ell with ell * logZ >= log2(Q) (what Gadget admits). */
int
digitsFor(const RnsBase &base, int log_z)
{
    int ell = 1;
    while (static_cast<double>(log_z) * ell < base.logQ())
        ++ell;
    return ell;
}

/** Primes of about `bits` bits, NTT-friendly at degree n. */
u64
primeOf(int bits, u64 n, int index = 0)
{
    auto found = findNttPrimes(bits, n, index + 1);
    EXPECT_GT(found.size(), static_cast<size_t>(index));
    return found.at(static_cast<size_t>(index));
}

std::vector<DigitCase>
digitCases(u64 n)
{
    std::vector<u64> ive(kIvePrimes.begin(), kIvePrimes.end());
    // findNttPrimes scans down from 2^bits: a "31-bit" prime is just
    // below 2^31, so at or above z = 2^30.
    const u64 p28 = primeOf(28, n), p30a = primeOf(30, n),
              p30b = primeOf(30, n, 1), p31a = primeOf(31, n),
              p31b = primeOf(31, n, 1), p32 = primeOf(32, n),
              p33 = primeOf(33, n), p45 = primeOf(45, n);
    return {
        // The paper primes with both shipped gadgets and the paper's
        // z = 2^22.
        {ive, 13},
        {ive, 14},
        {ive, 22},
        // Mixed 28/30-bit bases (primes far from equal in size).
        {{p28, p30a, ive[0]}, 14},
        {{p30a, ive[1], p28, p30b}, 13},
        {{ive[3], p30a, p30b, ive[2]}, 22},
        // logZ = 30 over primes at or above 2^30.
        {{p31a, p31b, p32}, 30},
        // The 31/32-bit boundary of the 32-bit lane products.
        {{p31a, p32, ive[0]}, 16},
        // A prime >= 2^32: no Garner tables, the scalar path.
        {{p33, ive[0]}, 13},
        {{ive[1], p45}, 20},
        // z above a prime: digits are reduced in that plane.
        {{ive[0], p30a}, 30},
    };
}

} // namespace

TEST(Simd, DigitDecomposerMatchesScalarAcrossBasesAndRanges)
{
    Rng rng(29);
    for (u64 n : {u64{256}, u64{1024}, u64{4096}}) {
        for (const DigitCase &dc : digitCases(n)) {
            RnsBase base(dc.primes);
            const int k = base.size();
            Gadget gadget(&base, dc.logZ, digitsFor(base, dc.logZ));
            const simd::DigitPlan plan = gadget.digitPlan();
            const int ell = plan.ell;
            bool below32 = true;
            for (u64 q : dc.primes)
                below32 = below32 && q < simd::kFusedMacModulusBound;
            ASSERT_EQ(plan.garner != nullptr, below32);

            // Random residues, with x = 0 and x = Q - 1 planted at
            // both ends of the vector body and in the tail.
            std::vector<u64> src(static_cast<size_t>(k) * n);
            for (int p = 0; p < k; ++p) {
                const u64 q = base.modulus(p).value();
                for (u64 i = 0; i < n; ++i) {
                    u64 v = rng.uniform(q);
                    if (i % 97 == 3 || i == n - 1)
                        v = 0;
                    else if (i % 89 == 4 || i == n - 2)
                        v = q - 1;
                    src[p * n + i] = v;
                }
            }
            // Ranges that start and end off the 8-lane grid.
            std::vector<std::pair<u64, u64>> ranges = {
                {0, n}, {3, n - 5}, {1, 9}, {n - 7, n}, {5, 6}};
            for (auto [from, to] : ranges) {
                const size_t words = static_cast<size_t>(k) * n;
                std::vector<std::vector<u64>> want(
                    ell, std::vector<u64>(words, ~u64{0}));
                std::vector<u64 *> want_ptr;
                for (auto &d : want)
                    want_ptr.push_back(d.data());
                scalarK().decomposeDigits(plan, src.data(), n, from, to,
                                          want_ptr.data());
                // The scalar reference is today's fromRns + decompose.
                std::vector<u64> res(k), dig(ell);
                for (u64 i = from; i < to; i += 37) {
                    for (int p = 0; p < k; ++p)
                        res[p] = src[p * n + i];
                    gadget.decompose(base.fromRns(res), dig);
                    for (int j = 0; j < ell; ++j)
                        for (int p = 0; p < k; ++p)
                            ASSERT_EQ(want[j][p * n + i],
                                      dig[j] % base.modulus(p).value())
                                << "scalar i=" << i << " j=" << j;
                }
                for (const simd::Kernels *b : allBackends()) {
                    std::vector<std::vector<u64>> got(
                        ell, std::vector<u64>(words, ~u64{0}));
                    std::vector<u64 *> got_ptr;
                    for (auto &d : got)
                        got_ptr.push_back(d.data());
                    b->decomposeDigits(plan, src.data(), n, from, to,
                                       got_ptr.data());
                    for (int j = 0; j < ell; ++j)
                        ASSERT_EQ(got[j], want[j])
                            << b->name << " n=" << n << " k=" << k
                            << " logZ=" << dc.logZ << " digit " << j
                            << " range [" << from << ", " << to << ")";
                }
            }
        }
    }
}

TEST(Simd, ApplyCoeffMapMatchesScalarForRotationsAndMonomials)
{
    Rng rng(17);
    for (u64 n : {u64{8}, u64{64}, u64{1024}}) {
        for (u64 q : sweepPrimes(n)) {
            std::vector<u64> src = randomCanonical(n, q, rng);
            src[0] = 0;
            src[n - 1] = 0; // flip-of-zero corner
            std::vector<u64> map(n);
            std::vector<u64> rotations = {1, 5, n / 2 + 1, 2 * n - 1};
            for (u64 r : rotations) {
                RnsPoly::automorphismMap(n, r, map);
                std::vector<u64> want(n, ~u64{0});
                scalarK().applyCoeffMap(
                    want.data(), src.data(), map.data(), n, q);
                for (const simd::Kernels *k : allBackends()) {
                    std::vector<u64> got(n, ~u64{0});
                    k->applyCoeffMap(got.data(), src.data(), map.data(),
                                     n, q);
                    ASSERT_EQ(got, want) << k->name << " n=" << n
                                         << " q=" << q << " r=" << r;
                }
            }
        }
    }
}

TEST(Simd, LazyRangeCornersThroughFullTransforms)
{
    // The q/2q/4q corners of the lazy ranges are internal states; the
    // way to pin them per backend is transforms whose inputs force
    // extremal butterflies (all q-1 maximizes every u and Shoup
    // product; delta vectors exercise the zero paths).
    Rng rng(23);
    for (u64 n : {u64{16}, u64{64}, u64{128}, u64{2048}}) {
        for (u64 q : sweepPrimes(n)) {
            NttTable table(q, n);
            std::vector<std::vector<u64>> cases;
            cases.emplace_back(n, q - 1);
            std::vector<u64> delta(n, 0);
            delta[n - 1] = q - 1;
            cases.push_back(std::move(delta));
            for (auto &input : cases) {
                std::vector<u64> want = input;
                table.forwardStrict(want);
                std::vector<u64> want_inv = input;
                table.inverseStrict(want_inv);
                for (const simd::Kernels *b : allBackends()) {
                    std::vector<u64> got = input;
                    b->nttForwardLazy(got.data(), n, table.modulus(),
                                      table.forwardTwiddles());
                    ASSERT_EQ(got, want)
                        << b->name << " n=" << n << " q=" << q;
                    // The inverse's unreduced sums peak on the same
                    // inputs.
                    got = input;
                    b->nttInverseLazy(got.data(), n, table.modulus(),
                                      table.inverseTwiddles(),
                                      table.nInv(), table.nInvShoup(),
                                      table.nInvShoup52());
                    ASSERT_EQ(got, want_inv)
                        << b->name << " inv n=" << n << " q=" << q;
                }
            }
        }
    }
}

namespace {

/** Largest q = 1 mod 2n, prime, with q < limit. */
u64
nttPrimeBelow(u128 limit, u64 n)
{
    u128 q = (limit - 2) / (2 * n) * (2 * n) + 1;
    while (!isPrime(static_cast<u64>(q)))
        q -= 2 * n;
    return static_cast<u64>(q);
}

/** Smallest q = 1 mod 2n, prime, with q >= limit. */
u64
nttPrimeAtOrAbove(u128 limit, u64 n)
{
    u128 q = (limit + 2 * n - 2) / (2 * n) * (2 * n) + 1;
    while (!isPrime(static_cast<u64>(q)))
        q += 2 * n;
    return static_cast<u64>(q);
}

} // namespace

TEST(Simd, UnreducedPathBoundCornersAndSmallDegreeFallback)
{
    // The largest degree the paper primes admit (2n | q - 1 with
    // q - 1 = 2^27 + 2^15 gives n <= 2^14).
    const u64 n = u64{1} << 14;
    const int log_n = 14;
    const u128 limit52 = simd::kIfmaOperandBound;
    const u128 limit64 = u128{1} << 64;
    struct Corner
    {
        u64 q;
        bool fwd; ///< Forward bound (else inverse).
        bool is52; ///< 52-bit limit (else 64).
        bool below; ///< The entry may run its unreduced schedule
                    ///< (else it hands over to the next table down).
    };
    std::vector<Corner> corners;
    for (bool fwd : {true, false}) {
        for (bool is52 : {true, false}) {
            const u128 limit = is52 ? limit52 : limit64;
            // Smallest q whose bound reaches the limit.
            const u128 edge = fwd ? (limit + 2 * log_n) / (2 * log_n + 1)
                                  : limit >> log_n;
            corners.push_back({nttPrimeBelow(edge, n), fwd, is52, true});
            if (edge < kMaxModulus) {
                corners.push_back(
                    {nttPrimeAtOrAbove(edge, n), fwd, is52, false});
            }
        }
    }
    Rng rng(41);
    for (const Corner &c : corners) {
        NttTable table(c.q, n);
        const simd::NttTwiddles t =
            c.fwd ? table.forwardTwiddles() : table.inverseTwiddles();
        ASSERT_EQ(c.is52 ? t.unreduced52 : t.unreduced64, c.below)
            << "q=" << c.q << " fwd=" << c.fwd << " 52=" << c.is52;
        for (auto &input : cornerInputs(n, c.q, rng)) {
            std::vector<u64> want = input;
            if (c.fwd)
                table.forwardStrict(want);
            else
                table.inverseStrict(want);
            for (const simd::Kernels *b : allBackends()) {
                std::vector<u64> got = input;
                if (c.fwd) {
                    b->nttForwardLazy(got.data(), n, table.modulus(), t);
                } else {
                    b->nttInverseLazy(got.data(), n, table.modulus(), t,
                                      table.nInv(), table.nInvShoup(),
                                      table.nInvShoup52());
                }
                ASSERT_EQ(got, want) << b->name << " q=" << c.q
                                     << " fwd=" << c.fwd;
            }
        }
    }

    // Below the register block there are no lane tables and every
    // vector entry runs the scalar transforms.
    for (u64 small : {u64{8}, u64{16}, u64{32}}) {
        NttTable table(kIvePrimes[0], small);
        EXPECT_EQ(table.forwardTwiddles().lane, nullptr);
        EXPECT_EQ(table.inverseTwiddles().lane, nullptr);
    }
    NttTable blocked(kIvePrimes[0], simd::kNttBlock);
    EXPECT_EQ(blocked.forwardTwiddles().lane != nullptr,
              simd::backend(simd::Isa::Avx512) != nullptr);
}

TEST(Simd, NttDomainAutomorphismMatchesTransformedRotation)
{
    // sigma_r applied to NTT-form planes through applyCoeffMap and
    // RnsPoly::nttAutomorphismMap equals NTT(sigma_r(a)) computed in
    // coefficient form, for every expansion rotation n / 2^t + 1 and
    // r = 2n - 1, on every backend.
    Rng rng(43);
    for (u64 n : {u64{256}, u64{1024}, u64{4096}}) {
        std::vector<u64> rotations;
        for (u64 t = 1; t <= n; t <<= 1) {
            if (n / t + 1 < 2 * n && (n / t + 1) % 2 == 1)
                rotations.push_back(n / t + 1);
        }
        rotations.push_back(2 * n - 1);
        std::vector<u64> coeff_map(n), ntt_map(n);
        for (u64 q : kIvePrimes) {
            NttTable table(q, n);
            std::vector<std::vector<u64>> inputs;
            inputs.push_back(randomCanonical(n, q, rng));
            inputs.emplace_back(n, q - 1);
            for (u64 r : rotations) {
                RnsPoly::automorphismMap(n, r, coeff_map);
                RnsPoly::nttAutomorphismMap(n, r, ntt_map);
                for (const std::vector<u64> &a : inputs) {
                    std::vector<u64> want(n);
                    scalarK().applyCoeffMap(want.data(), a.data(),
                                            coeff_map.data(), n, q);
                    table.forwardStrict(want);
                    std::vector<u64> a_ntt = a;
                    table.forwardStrict(a_ntt);
                    for (const simd::Kernels *b : allBackends()) {
                        std::vector<u64> got(n, ~u64{0});
                        b->applyCoeffMap(got.data(), a_ntt.data(),
                                         ntt_map.data(), n, q);
                        ASSERT_EQ(got, want) << b->name << " n=" << n
                                             << " q=" << q << " r=" << r;
                    }
                }
            }
        }
    }
}

TEST(Simd, MacChainPairEqualsTwoLinks)
{
    Rng rng(47);
    // The kernel entry, every backend, every store-flag combination,
    // against two scalar links (inputs below 2^32).
    for (u64 n : {u64{3}, u64{8}, u64{11}, u64{512}}) {
        const u64 q = kIvePrimes.back();
        std::vector<u64> a = randomCanonical(n, q, rng);
        std::vector<u64> b0 = randomCanonical(n, q, rng);
        std::vector<u64> b1 = randomCanonical(n, q, rng);
        a[0] = b0[0] = b1[0] = q - 1; // maximal products
        const std::vector<u64> base0 = randomCanonical(n, q, rng);
        const std::vector<u64> base1 = randomCanonical(n, q, rng);
        for (bool s0 : {false, true}) {
            for (bool s1 : {false, true}) {
                std::vector<u64> want0 = base0, want1 = base1;
                simd::scalar::macChainLink(want0.data(), a.data(),
                                           b0.data(), n, s0);
                simd::scalar::macChainLink(want1.data(), a.data(),
                                           b1.data(), n, s1);
                for (const simd::Kernels *k : allBackends()) {
                    std::vector<u64> got0 = base0, got1 = base1;
                    k->macChainPair(got0.data(), got1.data(), a.data(),
                                    b0.data(), b1.data(), n, s0, s1);
                    ASSERT_EQ(got0, want0) << k->name << " n=" << n
                                           << " s0=" << s0 << " s1=" << s1;
                    ASSERT_EQ(got1, want1) << k->name << " n=" << n
                                           << " s0=" << s0 << " s1=" << s1;
                }
            }
        }
    }

    // The chain policy: kernels::chainMacPair against a canonical
    // reference, for a fused prime and one past the fused bound
    // (strict), with and without a canonical addend.
    const u64 n = 64;
    const u64 links = 9;
    for (u64 q : {kIvePrimes[0], primeOf(33, n)}) {
        const Modulus mod(q);
        ASSERT_EQ(kernels::fusedMacOk(mod, links),
                  q < simd::kFusedMacModulusBound);
        std::vector<std::vector<u64>> a, b0, b1;
        for (u64 l = 0; l < links; ++l) {
            a.push_back(randomCanonical(n, q, rng));
            b0.push_back(randomCanonical(n, q, rng));
            b1.push_back(randomCanonical(n, q, rng));
        }
        for (bool addend : {false, true}) {
            const std::vector<u64> init0 = randomCanonical(n, q, rng);
            const std::vector<u64> init1 = randomCanonical(n, q, rng);
            std::vector<u64> pair0 = init0, pair1 = init1;
            for (u64 l = 0; l < links; ++l) {
                const bool store = !addend && l == 0;
                kernels::chainMacPair(mod, links, n, pair0.data(),
                                      pair1.data(), a[l].data(),
                                      b0[l].data(), b1[l].data(), store,
                                      store);
            }
            for (std::vector<u64> *v : {&pair0, &pair1})
                kernels::chainMacFinish(mod, links, n, v->data());
            for (u64 i = 0; i < n; ++i) {
                u64 r0 = addend ? init0[i] : 0, r1 = addend ? init1[i] : 0;
                for (u64 l = 0; l < links; ++l) {
                    r0 = mod.add(r0, mod.mul(a[l][i], b0[l][i]));
                    r1 = mod.add(r1, mod.mul(a[l][i], b1[l][i]));
                }
                ASSERT_EQ(pair0[i], r0) << "q=" << q << " i=" << i;
                ASSERT_EQ(pair1[i], r1) << "q=" << q << " i=" << i;
            }
        }
    }
}
