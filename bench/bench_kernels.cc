/**
 * @file
 * google-benchmark microbenchmarks of the crypto kernels: the building
 * blocks whose counts drive the complexity model and the hardware
 * mapping (NTT, external product, Subs, RowSel MAC, Dcp, iCRT,
 * Solinas vs Barrett reduction).
 */

#include <benchmark/benchmark.h>

#include <string>

#include "bfv/automorphism.hh"
#include "bfv/rgsw.hh"
#include "modmath/primes.hh"
#include "modmath/solinas.hh"
#include "pir/params.hh"
#include "poly/kernels.hh"
#include "poly/workspace.hh"

using namespace ive;

namespace {

struct KernelFixture
{
    KernelFixture()
        : params(PirParams::functionalDefault()), ctx(params.he),
          rng(1), sk(ctx, rng),
          plain(ctx.n(), 0x12345678u),
          ct(encryptPlain(ctx, sk, rng, plain)),
          rgsw(encryptRgswConst(ctx, sk, rng, 1)),
          evk(genEvk(ctx, sk, rng, ctx.n() + 1)),
          dbEntry(liftPlain(ctx, plain))
    {
    }

    PirParams params;
    HeContext ctx;
    Rng rng;
    SecretKey sk;
    std::vector<u64> plain;
    BfvCiphertext ct;
    RgswCiphertext rgsw;
    EvkKey evk;
    RnsPoly dbEntry;
};

KernelFixture &
fixture()
{
    static KernelFixture f;
    return f;
}

} // namespace

// --- lazy vs strict kernel micro-pairs ------------------------------
//
// The lazy kernels (poly/kernels.hh) are what the pipeline runs; the
// strict references are the pre-optimization implementations. Keeping
// both benchmarked pins the before/after delta the lazy rewrite buys.

static void
BM_NttForwardLazy(benchmark::State &state)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        table.forward(a); // In-place; stays canonical.
        benchmark::DoNotOptimize(a.data());
    }
}
BENCHMARK(BM_NttForwardLazy);

static void
BM_NttForwardStrict(benchmark::State &state)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        table.forwardStrict(a);
        benchmark::DoNotOptimize(a.data());
    }
}
BENCHMARK(BM_NttForwardStrict);

static void
BM_NttInverseLazy(benchmark::State &state)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        table.inverse(a);
        benchmark::DoNotOptimize(a.data());
    }
}
BENCHMARK(BM_NttInverseLazy);

static void
BM_NttInverseStrict(benchmark::State &state)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        table.inverseStrict(a);
        benchmark::DoNotOptimize(a.data());
    }
}
BENCHMARK(BM_NttInverseStrict);

static void
BM_MacChainFused(benchmark::State &state)
{
    // A D0 = 64-long RowSel-style MAC chain into the two sides of one
    // residue plane, which share the DB operand: u64 accumulation in
    // the destinations, one deferred Barrett pass each. Items count
    // both sides' MACs.
    auto &f = fixture();
    const Ring &ring = f.ctx.ring();
    const Modulus &mod = ring.base.modulus(0);
    std::span<const u64> a = f.dbEntry.residues(0);
    std::span<const u64> b0 = f.ct.a.residues(0);
    std::span<const u64> b1 = f.ct.b.residues(0);
    std::vector<u64> out0(ring.n), out1(ring.n);
    for (auto _ : state) {
        for (int c = 0; c < 64; ++c)
            kernels::chainMacPair(mod, 64, ring.n, out0.data(),
                                  out1.data(), a.data(), b0.data(),
                                  b1.data(), c == 0, c == 0);
        kernels::chainMacFinish(mod, 64, ring.n, out0.data());
        kernels::chainMacFinish(mod, 64, ring.n, out1.data());
        benchmark::DoNotOptimize(out0.data());
        benchmark::DoNotOptimize(out1.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * 64 * ring.n);
}
BENCHMARK(BM_MacChainFused);

static void
BM_MacChainStrict(benchmark::State &state)
{
    auto &f = fixture();
    const Ring &ring = f.ctx.ring();
    const Modulus &mod = ring.base.modulus(0);
    std::span<const u64> a = f.dbEntry.residues(0);
    std::span<const u64> b = f.ct.a.residues(0);
    std::vector<u64> out(ring.n);
    for (auto _ : state) {
        std::fill(out.begin(), out.end(), 0);
        for (int c = 0; c < 64; ++c)
            kernels::mulAccVec(out.data(), a.data(), b.data(), ring.n,
                               mod);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 64 * ring.n);
}
BENCHMARK(BM_MacChainStrict);

static void
BM_NttForward(benchmark::State &state)
{
    auto &f = fixture();
    RnsPoly p = f.dbEntry;
    p.fromNtt(f.ctx.ring());
    for (auto _ : state) {
        RnsPoly q = p;
        q.toNtt(f.ctx.ring());
        benchmark::DoNotOptimize(q);
    }
}
BENCHMARK(BM_NttForward);

static void
BM_NttInverse(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        RnsPoly q = f.dbEntry;
        q.fromNtt(f.ctx.ring());
        benchmark::DoNotOptimize(q);
    }
}
BENCHMARK(BM_NttInverse);

static void
BM_RowSelMac(benchmark::State &state)
{
    // One plaintext-ciphertext multiply-accumulate: the unit of RowSel.
    auto &f = fixture();
    BfvCiphertext acc;
    acc.a = RnsPoly(f.ctx.ring(), Domain::Ntt);
    acc.b = RnsPoly(f.ctx.ring(), Domain::Ntt);
    for (auto _ : state) {
        plainMulAcc(f.ctx, acc, f.dbEntry, f.ct);
        benchmark::DoNotOptimize(acc);
    }
    state.SetBytesProcessed(state.iterations() *
                            f.ctx.ring().words() * 8);
}
BENCHMARK(BM_RowSelMac);

// The serving calls themselves: *Into with workspace leases, as
// PirServer runs them (the allocating wrappers add two polys and a
// digit vector per call).

static void
BM_ExternalProduct(benchmark::State &state)
{
    auto &f = fixture();
    PolyWorkspace &ws = PolyWorkspace::local();
    CtLease out(ws, f.ctx.ring());
    for (auto _ : state) {
        externalProductInto(f.ctx, f.rgsw, f.ct, *out, ws);
        benchmark::DoNotOptimize(out->a.residues(0).data());
    }
}
BENCHMARK(BM_ExternalProduct);

static void
BM_Subs(benchmark::State &state)
{
    auto &f = fixture();
    PolyWorkspace &ws = PolyWorkspace::local();
    CtLease out(ws, f.ctx.ring());
    for (auto _ : state) {
        subsInto(f.ctx, f.ct, f.evk, *out, ws);
        benchmark::DoNotOptimize(out->a.residues(0).data());
    }
}
BENCHMARK(BM_Subs);

static void
BM_GadgetDecompose(benchmark::State &state)
{
    auto &f = fixture();
    const Ring &ring = f.ctx.ring();
    RnsPoly a = f.ct.a;
    a.fromNtt(ring);
    PolyWorkspace &ws = PolyWorkspace::local();
    const Gadget &g = f.ctx.gadgetRgsw();
    for (auto _ : state) {
        PolyVecLease digits(ws, ring, Domain::Coeff,
                            static_cast<u64>(g.ell()));
        decomposePolyInto(f.ctx, g, a, *digits);
        benchmark::DoNotOptimize(digits[0].residues(0).data());
    }
}
BENCHMARK(BM_GadgetDecompose);

static void
BM_IcrtReconstruct(benchmark::State &state)
{
    auto &f = fixture();
    const Ring &ring = f.ctx.ring();
    RnsPoly a = f.ct.a;
    a.fromNtt(ring);
    std::vector<u64> res(ring.k());
    for (auto _ : state) {
        u128 acc = 0;
        for (u64 i = 0; i < ring.n; ++i) {
            a.coeffResidues(i, res);
            acc += ring.base.fromRns(res);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * ring.n);
}
BENCHMARK(BM_IcrtReconstruct);

// --- per-ISA backend columns ----------------------------------------
//
// One row per runnable backend per hot kernel (the dispatch table of
// poly/simd/simd.hh), so README's per-ISA table comes from a single
// run on the widest machine available. The default-named benchmarks
// above stay on the *active* backend — the trajectory numbers.

namespace {

void
registerIsaBench(const char *kernel, const simd::Kernels *k,
                 void (*fn)(benchmark::State &, const simd::Kernels *))
{
    std::string name = std::string("BM_Isa_") + kernel + "/" + k->name;
    benchmark::RegisterBenchmark(name.c_str(), fn, k);
}

void
isaNttForward(benchmark::State &state, const simd::Kernels *k)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        k->nttForwardLazy(a.data(), table.n(), table.modulus(),
                          table.forwardTwiddles());
        benchmark::DoNotOptimize(a.data());
    }
}

void
isaNttInverse(benchmark::State &state, const simd::Kernels *k)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        k->nttInverseLazy(a.data(), table.n(), table.modulus(),
                          table.inverseTwiddles(), table.nInv(),
                          table.nInvShoup(), table.nInvShoup52());
        benchmark::DoNotOptimize(a.data());
    }
}

void
isaMacPair(benchmark::State &state, const simd::Kernels *k)
{
    // A D0 = 64-long chain into two output planes that share the
    // first operand (RowSel's DB plane times leaf a and b): one pair
    // link per step. Items count both planes' MACs.
    auto &f = fixture();
    const Ring &ring = f.ctx.ring();
    const Modulus &mod = ring.base.modulus(0);
    std::span<const u64> a = f.dbEntry.residues(0);
    std::span<const u64> b0 = f.ct.a.residues(0);
    std::span<const u64> b1 = f.ct.b.residues(0);
    std::vector<u64> out0(ring.n), out1(ring.n);
    for (auto _ : state) {
        for (int c = 0; c < 64; ++c)
            k->macChainPair(out0.data(), out1.data(), a.data(), b0.data(),
                            b1.data(), ring.n, c == 0, c == 0);
        k->macChainReduce(out0.data(), ring.n, mod);
        k->macChainReduce(out1.data(), ring.n, mod);
        benchmark::DoNotOptimize(out0.data());
        benchmark::DoNotOptimize(out1.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * 64 * ring.n);
}

void
isaDigitDecompose(benchmark::State &state, const simd::Kernels *k)
{
    // The iCRT + digit extraction of one key-switch decomposition (the
    // kernel pass of decomposePolyInto, without the NTTs).
    auto &f = fixture();
    const Ring &ring = f.ctx.ring();
    RnsPoly a = f.ct.a;
    a.fromNtt(ring);
    const simd::DigitPlan plan = f.ctx.gadgetKs().digitPlan();
    std::vector<RnsPoly> digits(static_cast<size_t>(plan.ell),
                                RnsPoly(ring, Domain::Coeff));
    std::vector<u64 *> dst;
    for (RnsPoly &d : digits)
        dst.push_back(d.residues(0).data());
    for (auto _ : state) {
        k->decomposeDigits(plan, a.residues(0).data(), ring.n, 0, ring.n,
                           dst.data());
        benchmark::DoNotOptimize(dst[0]);
    }
    state.SetItemsProcessed(state.iterations() * ring.n);
}

void
isaApplyCoeffMap(benchmark::State &state, const simd::Kernels *k)
{
    auto &f = fixture();
    const Ring &ring = f.ctx.ring();
    const u64 q = ring.base.modulus(0).value();
    std::vector<u64> map(ring.n);
    RnsPoly::automorphismMap(ring.n, ring.n / 2 + 1, map);
    std::vector<u64> src(f.dbEntry.residues(0).begin(),
                         f.dbEntry.residues(0).end());
    std::vector<u64> dst(ring.n);
    for (auto _ : state) {
        k->applyCoeffMap(dst.data(), src.data(), map.data(), ring.n, q);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * ring.n);
}

int
registerIsaBenches()
{
    for (simd::Isa isa :
         {simd::Isa::Scalar, simd::Isa::Avx2, simd::Isa::Avx512}) {
        const simd::Kernels *k = simd::backend(isa);
        if (k == nullptr)
            continue;
        registerIsaBench("NttForward", k, &isaNttForward);
        registerIsaBench("NttInverse", k, &isaNttInverse);
        registerIsaBench("MacPair", k, &isaMacPair);
        registerIsaBench("DigitDecompose", k, &isaDigitDecompose);
        registerIsaBench("ApplyCoeffMap", k, &isaApplyCoeffMap);
    }
    return 0;
}

const int g_isa_benches_registered = registerIsaBenches();

} // namespace

static void
BM_BarrettMul(benchmark::State &state)
{
    Modulus mod(kIvePrimes[0]);
    u64 x = 0x5a5a5a5;
    for (auto _ : state) {
        x = mod.mul(x, 0x3c3c3c3);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_BarrettMul);

static void
BM_SolinasMul(benchmark::State &state)
{
    SolinasReducer sol(kIvePrimes[0], kIvePrimeExponents[0]);
    u64 x = 0x5a5a5a5;
    for (auto _ : state) {
        x = sol.mul(x, 0x3c3c3c3);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_SolinasMul);
