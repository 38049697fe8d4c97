/**
 * @file
 * Scalar backend: the portable reference every vector backend must
 * match bit-for-bit on canonical outputs. These are the PR-4
 * lazy-reduction kernels, relocated behind the dispatch table; the
 * vector TUs also call them for loop tails and fallback modulus
 * classes.
 */

#include "common/contracts.hh"
#include "common/logging.hh"
#include "poly/kernels.hh"
#include "poly/simd/backends.hh"

namespace ive::simd::scalar {

// --- range-contract audits (-DIVE_CHECK_RANGES=ON) -------------------
//
// Every documented lazy bound of the kernel layer, checked on the
// values actually flowing through. Only the scalar backend carries the
// audits: forcing IVE_FORCE_ISA=scalar under a checked build verifies
// a full serving pipeline, and the vector backends are proven
// bit-identical to scalar by tests/test_simd.cc. In normal builds
// these helpers are empty and compile to nothing.

namespace {

inline void
auditBelow(const u64 *a, u64 n, u128 bound, const char *contract)
{
#if IVE_RANGE_CHECKS_ENABLED
    for (u64 i = 0; i < n; ++i)
        ive_contract(a[i] < bound, contract);
#else
    (void)a;
    (void)n;
    (void)bound;
    (void)contract;
#endif
}

// Contract names are part of the tooling surface: test_contracts.cc
// matches on them, and a checked-build failure report leads with them.
constexpr const char *kFwdInputContract =
    "forward-NTT input canonicity (a[i] < q)";
constexpr const char *kFwdLazyContract =
    "forward-NTT lazy intermediate below 4q";
constexpr const char *kInvInputContract =
    "inverse-NTT input canonicity (a[i] < q)";
constexpr const char *kInvLazyContract =
    "inverse-NTT lazy intermediate below 2q";
constexpr const char *kCanonInContract =
    "canonicalization input below the 4q lazy bound";
constexpr const char *kCanonOutContract =
    "post-canonicalization residue below q";
constexpr const char *kShoupOperandContract =
    "Shoup multiplicand canonicity (b[i] < q)";
constexpr const char *kVecOperandContract =
    "vector-op operand canonicity (value < q)";
constexpr const char *kMacOperandContract =
    "fused-MAC operand below the 2^32 fused bound";
constexpr const char *kMacOverflowContract =
    "u64 MAC accumulator below 2^64 (chain within its length bound)";
constexpr const char *kDigitInputContract =
    "digit-decomposer residue canonicity (x_i < q_i)";
constexpr const char *kCoeffMapContract =
    "automorphism map position below n";

} // namespace

void
nttForwardLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb)
{
    const u64 q = mod.value();
    const u64 *tw = tb.tw;
    const u64 *tws = tb.twShoup;
    auditBelow(a, n, q, kFwdInputContract);
    auditBelow(tw, n, q, kShoupOperandContract);
    u64 t = n;
    for (u64 m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (u64 i = 0; i < m; ++i) {
            u64 *x = a + 2 * i * t;
            scalarFwdButterflyBlock(x, x + t, t, tw[m + i], tws[m + i],
                                    q);
        }
        // Harvey CT butterflies keep every lane below 4q at each
        // stage; auditing per stage pins the exact invariant rather
        // than just the end state.
        auditBelow(a, n, static_cast<u128>(4) * q, kFwdLazyContract);
    }
    canonicalizeVec(a, n, q);
}

void
nttInverseLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb,
               u64 n_inv, u64 n_inv_shoup, u64 /*n_inv_shoup52*/)
{
    const u64 q = mod.value();
    const u64 *tw = tb.tw;
    const u64 *tws = tb.twShoup;
    auditBelow(a, n, q, kInvInputContract);
    u64 t = 1;
    for (u64 m = n; m > 1; m >>= 1) {
        u64 j1 = 0;
        u64 h = m >> 1;
        for (u64 i = 0; i < h; ++i) {
            u64 *x = a + j1;
            scalarInvButterflyBlock(x, x + t, t, tw[h + i], tws[h + i],
                                    q);
            j1 += 2 * t;
        }
        t <<= 1;
        // GS butterflies keep the running sums below 2q per stage.
        auditBelow(a, n, static_cast<u128>(2) * q, kInvLazyContract);
    }
    for (u64 j = 0; j < n; ++j) {
        u64 v = kernels::mulShoupLazy(a[j], n_inv, n_inv_shoup, q);
        a[j] = v >= q ? v - q : v;
    }
    auditBelow(a, n, q, kCanonOutContract);
}

void
addVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    auditBelow(dst, n, q, kVecOperandContract);
    auditBelow(src, n, q, kVecOperandContract);
    for (u64 i = 0; i < n; ++i) {
        u64 s = dst[i] + src[i];
        dst[i] = s >= q ? s - q : s;
    }
}

void
subVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    auditBelow(dst, n, q, kVecOperandContract);
    auditBelow(src, n, q, kVecOperandContract);
    for (u64 i = 0; i < n; ++i) {
        u64 a = dst[i], b = src[i];
        dst[i] = a >= b ? a - b : a + q - b;
    }
}

void
negVec(u64 *dst, u64 n, u64 q)
{
    auditBelow(dst, n, q, kVecOperandContract);
    for (u64 i = 0; i < n; ++i)
        dst[i] = dst[i] == 0 ? 0 : q - dst[i];
}

void
mulVec(u64 *dst, const u64 *src, u64 n, const Modulus &mod)
{
    for (u64 i = 0; i < n; ++i)
        dst[i] = mod.mul(dst[i], src[i]);
}

void
mulShoupVec(u64 *dst, const u64 *b, const u64 *b_shoup, u64 n, u64 q)
{
    auditBelow(b, n, q, kShoupOperandContract);
    for (u64 i = 0; i < n; ++i) {
        u64 r = kernels::mulShoupLazy(dst[i], b[i], b_shoup[i], q);
        dst[i] = r >= q ? r - q : r;
    }
    auditBelow(dst, n, q, kCanonOutContract);
}

void
canonicalizeVec(u64 *a, u64 n, u64 q)
{
    auditBelow(a, n, static_cast<u128>(4) * q, kCanonInContract);
    const u64 two_q = 2 * q;
    for (u64 j = 0; j < n; ++j) {
        u64 v = a[j];
        if (v >= two_q)
            v -= two_q;
        if (v >= q)
            v -= q;
        a[j] = v;
    }
    auditBelow(a, n, q, kCanonOutContract);
}

void
mulAccVec(u64 *dst, const u64 *a, const u64 *b, u64 n, const Modulus &mod)
{
    const u64 q = mod.value();
    auditBelow(dst, n, q, kVecOperandContract);
    auditBelow(a, n, q, kVecOperandContract);
    auditBelow(b, n, q, kVecOperandContract);
    for (u64 i = 0; i < n; ++i) {
        u64 s = dst[i] + mod.mul(a[i], b[i]);
        dst[i] = s >= q ? s - q : s;
    }
}

void
macChainLink(u64 *acc, const u64 *a, const u64 *b, u64 n, bool store)
{
    auditBelow(a, n, kFusedMacModulusBound, kMacOperandContract);
    auditBelow(b, n, kFusedMacModulusBound, kMacOperandContract);
    if (store) {
        for (u64 i = 0; i < n; ++i)
            acc[i] = a[i] * b[i];
        return;
    }
    for (u64 i = 0; i < n; ++i) {
        u64 p = a[i] * b[i];
        // A chain past (q - 1)^2 * links + q < 2^64 wraps here, and
        // the wrapped sum reduces to a wrong, often still decryptable,
        // residue.
        ive_contract(acc[i] <= ~u64{0} - p, kMacOverflowContract);
        acc[i] += p;
    }
}

void
macChainPair(u64 *acc0, u64 *acc1, const u64 *a, const u64 *b0,
             const u64 *b1, u64 n, bool store0, bool store1)
{
    macChainLink(acc0, a, b0, n, store0);
    macChainLink(acc1, a, b1, n, store1);
}

void
macChainReduce(u64 *acc, u64 n, const Modulus &mod)
{
    for (u64 i = 0; i < n; ++i)
        acc[i] = mod.reduce(acc[i]);
}

void
macAccumulate(u128 *acc, const u64 *a, const u64 *b, u64 n)
{
    auditBelow(a, n, kFusedMacModulusBound, kMacOperandContract);
    auditBelow(b, n, kFusedMacModulusBound, kMacOperandContract);
    for (u64 i = 0; i < n; ++i)
        acc[i] += static_cast<u128>(a[i]) * b[i];
}

void
decomposeDigits(const DigitPlan &plan, const u64 *src, u64 stride,
                u64 from, u64 to, u64 *const *dst)
{
    const int k = plan.k;
    const u64 mask = (u64{1} << plan.logZ) - 1;
    for (int p = 0; p < k; ++p)
        auditBelow(src + p * stride + from, to - from,
                   plan.moduli[p].value(), kDigitInputContract);
    for (u64 i = from; i < to; ++i) {
        // iCRT (paper Eq. 3), as RnsBase::fromRns computes it.
        u128 x = 0;
        for (int p = 0; p < k; ++p) {
            u64 t = plan.moduli[p].mulShoup(src[p * stride + i],
                                            plan.qHatInv[p],
                                            plan.qHatInvShoup[p]);
            x += plan.qHat[p] * t;
        }
        while (x >= plan.bigQ)
            x -= plan.bigQ;
        // Bit extraction, as Gadget::decompose does it; a digit is the
        // same integer in every plane, reduced only where z > q_p.
        for (int j = 0; j < plan.ell; ++j) {
            u64 d = static_cast<u64>(x) & mask;
            x >>= plan.logZ;
            for (int p = 0; p < k; ++p) {
                u64 q = plan.moduli[p].value();
                dst[j][p * stride + i] = d < q ? d : d % q;
            }
        }
        ive_assert(x == 0, "z^ell must cover Q");
    }
}

void
applyCoeffMap(u64 *dst, const u64 *src, const u64 *map, u64 n, u64 q)
{
    auditBelow(src, n, q, kVecOperandContract);
    auditBelow(map, n, static_cast<u128>(n) << 1, kCoeffMapContract);
    for (u64 i = 0; i < n; ++i) {
        u64 m = map[i];
        u64 v = src[i];
        dst[m >> 1] = (m & 1) ? (v == 0 ? 0 : q - v) : v;
    }
}

} // namespace ive::simd::scalar

namespace ive::simd {

const Kernels kScalarKernels = {
    Isa::Scalar,
    "scalar",
    &scalar::nttForwardLazy,
    &scalar::nttInverseLazy,
    &scalar::addVec,
    &scalar::subVec,
    &scalar::negVec,
    &scalar::mulVec,
    &scalar::mulShoupVec,
    &scalar::mulAccVec,
    &scalar::macChainPair,
    &scalar::macChainReduce,
    &scalar::macAccumulate,
    &scalar::decomposeDigits,
    &scalar::applyCoeffMap,
};

} // namespace ive::simd
