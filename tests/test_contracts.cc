/**
 * @file
 * Proof that the -DIVE_CHECK_RANGES=ON audits actually fire.
 *
 * The scalar backend (poly/simd/kernels_scalar.cc) audits every
 * documented lazy-range bound of the kernel layer and throws
 * ive::ContractViolation on violation. A checked build that never
 * throws could mean "all invariants hold" — or "the audits are dead
 * code". These suites feed deliberately corrupted values through the
 * scalar dispatch table and require the throw, one test per distinct
 * contract; the clean-path suites then run honest values through the
 * same audited kernels at corner primes (28-bit paper primes, the
 * 2^32 fused-MAC boundary, the 2^50 IFMA bound, 60-bit strict) and
 * at the exact u64 chain-length bound, and require silence.
 *
 * Under a normal build (IVE_RANGE_CHECKS_ENABLED == 0) the audits
 * compile to nothing, so every suite here skips — presence in tier-1
 * is free; the checked CI stage (scripts/ci.sh) is where they bite.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/contracts.hh"
#include "common/rng.hh"
#include "modmath/primes.hh"
#include "ntt/ntt.hh"
#include "poly/kernels.hh"
#include "poly/simd/backends.hh"
#include "poly/simd/simd.hh"
#include "rns/gadget.hh"
#include "rns/rns_base.hh"

using namespace ive;

namespace {

#if IVE_RANGE_CHECKS_ENABLED
#define IVE_REQUIRE_CHECKED_BUILD() ((void)0)
#else
#define IVE_REQUIRE_CHECKED_BUILD() \
    GTEST_SKIP() << "build has IVE_CHECK_RANGES=OFF; audits compile out"
#endif

const simd::Kernels &
scalarK()
{
    const simd::Kernels *k = simd::backend(simd::Isa::Scalar);
    EXPECT_NE(k, nullptr);
    return *k;
}

constexpr u64 kN = 64;

/** 28-bit paper prime for the corruption tests. */
u64
smallPrime()
{
    return kIvePrimes[0];
}

std::vector<u64>
canonical(u64 n, u64 q, u64 seed)
{
    Rng rng(seed);
    std::vector<u64> a(n);
    for (u64 &v : a)
        v = rng.uniform(q);
    return a;
}

} // namespace

// --- corrupted values must throw -------------------------------------

TEST(Contracts, ForwardNttRejectsNonCanonicalInput)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    NttTable table(q, kN);
    Modulus mod(q);
    std::vector<u64> a = canonical(kN, q, 1);
    a[kN / 2] = q; // One lane at exactly q breaks canonicity.
    EXPECT_THROW(
        scalarK().nttForwardLazy(a.data(), kN, mod,
                                 table.forwardTwiddles()),
        ContractViolation);
}

TEST(Contracts, InverseNttRejectsNonCanonicalInput)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    NttTable table(q, kN);
    Modulus mod(q);
    std::vector<u64> a = canonical(kN, q, 2);
    a[3] = q + 1;
    EXPECT_THROW(scalarK().nttInverseLazy(a.data(), kN, mod,
                                          table.inverseTwiddles(),
                                          table.nInv(),
                                          table.nInvShoup(),
                                          table.nInvShoup52()),
                 ContractViolation);
}

TEST(Contracts, CanonicalizeRejectsValueAtFourQ)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    std::vector<u64> a = canonical(kN, q, 3);
    a[0] = 4 * q; // The lazy bound is [0, 4q); 4q itself is out.
    // The scalar forward transform's last pass; no table holds it.
    EXPECT_THROW(simd::scalar::canonicalizeVec(a.data(), kN, q),
                 ContractViolation);
}

TEST(Contracts, ShoupMultiplyRejectsNonCanonicalMultiplicand)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    std::vector<u64> dst = canonical(kN, q, 4);
    std::vector<u64> b = canonical(kN, q, 5);
    std::vector<u64> b_shoup(kN, 0); // Never reached: audit fires first.
    b[7] = q;
    EXPECT_THROW(scalarK().mulShoupVec(dst.data(), b.data(),
                                       b_shoup.data(), kN, q),
                 ContractViolation);
}

TEST(Contracts, VectorAddRejectsNonCanonicalOperand)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    std::vector<u64> dst = canonical(kN, q, 6);
    std::vector<u64> src = canonical(kN, q, 7);
    src[kN - 1] = q + 5;
    EXPECT_THROW(scalarK().addVec(dst.data(), src.data(), kN, q),
                 ContractViolation);
}

TEST(Contracts, MacRejectsOperandAtFusedBound)
{
    IVE_REQUIRE_CHECKED_BUILD();
    std::vector<u64> acc(kN, 0);
    std::vector<u128> acc128(kN, 0);
    std::vector<u64> a(kN, 1), b(kN, 1);
    a[0] = simd::kFusedMacModulusBound; // 2^32: first value outside.
    EXPECT_THROW(simd::scalar::macChainLink(acc.data(), a.data(),
                                            b.data(), kN, false),
                 ContractViolation);
    EXPECT_THROW(
        scalarK().macAccumulate(acc128.data(), a.data(), b.data(), kN),
        ContractViolation);
}

TEST(Contracts, MacChainRejectsAccumulatorPastBound)
{
    IVE_REQUIRE_CHECKED_BUILD();
    // One link more than the longest fused chain, every operand q - 1,
    // on top of a q - 1 addend: the raw u64 sum wraps, and the audit
    // must catch the link that wraps it.
    u64 q = smallPrime();
    const u64 max = kernels::fusedMacMaxChain(q);
    const u128 total = static_cast<u128>(q - 1) * (q - 1) * (max + 1) +
                       (q - 1);
    ASSERT_GT(total, static_cast<u128>(~u64{0}));
    std::vector<u64> acc(kN, q - 1);
    std::vector<u64> a(kN, q - 1), b(kN, q - 1);
    EXPECT_THROW(
        {
            for (u64 link = 0; link <= max; ++link)
                simd::scalar::macChainLink(acc.data(), a.data(),
                                           b.data(), kN, false);
        },
        ContractViolation);
}

TEST(Contracts, DigitDecomposerRejectsNonCanonicalResidue)
{
    IVE_REQUIRE_CHECKED_BUILD();
    std::vector<u64> primes(kIvePrimes.begin(), kIvePrimes.end());
    RnsBase base(primes);
    Gadget gadget(&base, 13, 9);
    const simd::DigitPlan plan = gadget.digitPlan();
    std::vector<u64> src(4 * kN, 0);
    src[2 * kN + 5] = base.modulus(2).value(); // x_2 == q_2.
    std::vector<std::vector<u64>> digits(9, std::vector<u64>(4 * kN));
    std::vector<u64 *> dst;
    for (auto &d : digits)
        dst.push_back(d.data());
    EXPECT_THROW(scalarK().decomposeDigits(plan, src.data(), kN, 0, kN,
                                           dst.data()),
                 ContractViolation);
}

TEST(Contracts, CoeffMapRejectsOutOfRangePosition)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    std::vector<u64> src = canonical(kN, q, 8);
    std::vector<u64> dst(kN, 0);
    std::vector<u64> map(kN);
    std::iota(map.begin(), map.end(), 0u);
    for (u64 &m : map)
        m <<= 1;              // Identity permutation, no flips...
    map[5] = (kN << 1) | 1;   // ...except one position past the ring.
    EXPECT_THROW(scalarK().applyCoeffMap(dst.data(), src.data(),
                                         map.data(), kN, q),
                 ContractViolation);
}

// --- honest values at corner primes must stay silent -----------------

TEST(Contracts, NttRoundTripCleanAtCornerPrimes)
{
    IVE_REQUIRE_CHECKED_BUILD();
    // 28-bit paper prime, the 2^32 fused-MAC straddle, the 2^50 IFMA
    // bound straddle, and a 60-bit strict prime: every dispatch class
    // the kernels distinguish, each near the bound its class is named
    // after. The audits must not false-positive on any of them.
    std::vector<u64> primes{kIvePrimes[0]};
    for (int bits : {31, 32, 50, 60}) {
        auto found = findNttPrimes(bits, kN, 1);
        ASSERT_FALSE(found.empty()) << "no " << bits << "-bit prime";
        primes.push_back(found[0]);
    }
    for (u64 q : primes) {
        NttTable table(q, kN);
        Modulus mod(q);
        std::vector<u64> a = canonical(kN, q, q);
        std::vector<u64> original = a;
        EXPECT_NO_THROW({
            scalarK().nttForwardLazy(a.data(), kN, mod,
                                     table.forwardTwiddles());
            scalarK().nttInverseLazy(a.data(), kN, mod,
                                     table.inverseTwiddles(),
                                     table.nInv(), table.nInvShoup(),
                                     table.nInvShoup52());
        }) << "q = " << q;
        EXPECT_EQ(a, original) << "round trip at q = " << q;
    }
}

TEST(Contracts, MaximalFusedChainCleanAndExact)
{
    IVE_REQUIRE_CHECKED_BUILD();
    // Exactly the longest fused chain of q - 1 products on top of a
    // q - 1 addend, at the paper prime and just below 2^31 and 2^32:
    // the audits admit the documented bound exactly, and the one
    // deferred reduction gives the exact modular sum.
    std::vector<u64> primes{smallPrime()};
    for (int bits : {31, 32})
        primes.push_back(findNttPrimes(bits, kN, 1).at(0));
    for (u64 q : primes) {
        Modulus mod(q);
        const u64 max = kernels::fusedMacMaxChain(q);
        ASSERT_GE(max, 1u) << "q = " << q;
        std::vector<u64> acc(kN, q - 1);
        std::vector<u64> a(kN, q - 1), b(kN, q - 1);
        EXPECT_NO_THROW({
            for (u64 link = 0; link < max; ++link)
                simd::scalar::macChainLink(acc.data(), a.data(),
                                           b.data(), kN, false);
            scalarK().macChainReduce(acc.data(), kN, mod);
        }) << "q = " << q;
        u64 expect = mod.add(mod.mul(mod.mul(q - 1, q - 1), max % q),
                             q - 1);
        for (u64 v : acc)
            ASSERT_EQ(v, expect) << "q = " << q;
    }
}
