#include "ntt/ntt.hh"

#include <stdexcept>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "modmath/primes.hh"
#include "poly/kernels.hh"
#include "poly/simd/simd.hh"

namespace ive {

namespace {

// The 52-bit lazy Shoup range proof needs 4q < 2^52, i.e. moduli below
// simd::kIfmaModulusBound (static_asserted in simd.hh); only then does
// NttTable spend memory on x2^52 companions. IVE's 28-bit evaluation
// primes are far inside it; wide test primes (>= 50 bits) fall back.
u64
shoupPrecompute52(u64 b, u64 q)
{
    return static_cast<u64>((static_cast<u128>(b) << 52) / q);
}

/**
 * Lane order of the register block's last three stages. After its
 * 8 x 8 transpose, lane k of register l holds block coefficient
 * 8k + l, so for block c: stage t = 4 pairs registers (l, l + 4) and
 * lane k needs tab[n/8 + 8c + k]; t = 2 pairs (l, l + 2) within each
 * half, lane k needs tab[n/4 + 16c + 2k + p] for half p; t = 1 pairs
 * (l, l + 1), lane k needs tab[n/2 + 32c + 4k + p] for pair p.
 */
std::vector<u64>
laneOrder(const std::vector<u64> &tab, u64 n)
{
    std::vector<u64> out(n / simd::kNttBlock * simd::kNttLaneWords);
    for (u64 c = 0; c < n / simd::kNttBlock; ++c) {
        u64 *o = out.data() + c * simd::kNttLaneWords;
        for (u64 k = 0; k < 8; ++k) {
            o[k] = tab[n / 8 + 8 * c + k];
            for (u64 p = 0; p < 2; ++p)
                o[8 + 8 * p + k] = tab[n / 4 + 16 * c + 2 * k + p];
            for (u64 p = 0; p < 4; ++p)
                o[24 + 8 * p + k] = tab[n / 2 + 32 * c + 4 * k + p];
        }
    }
    return out;
}

} // namespace

NttTable::NttTable(u64 q, u64 n) : mod_(q), n_(n), logN_(log2Exact(n))
{
    ive_assert(isPow2(n) && n >= 4);
    if ((q - 1) % (2 * n) != 0) {
        throw std::invalid_argument(strprintf(
            "NttTable: prime %llu is not NTT-friendly for ring degree "
            "%llu: the negacyclic transform needs a primitive 2n-th "
            "root of unity, i.e. (q - 1) %% %llu == 0",
            (unsigned long long)q, (unsigned long long)n,
            (unsigned long long)(2 * n)));
    }

    psi_ = rootOfUnity(q, 2 * n);
    u64 psi_inv = mod_.inverse(psi_);

    // Spend the companion and lane tables only where some backend can
    // consume them (IFMA / AVX-512 compiled in and runnable).
    const bool ifma_ok =
        q < simd::kIfmaModulusBound && simd::ifmaButterfliesAvailable();
    const bool lanes = n >= simd::kNttBlock &&
                       simd::backend(simd::Isa::Avx512) != nullptr;

    u64 acc = 1;
    std::vector<u64> pow_fwd(n), pow_inv(n);
    u64 acc_inv = 1;
    for (u64 i = 0; i < n; ++i) {
        pow_fwd[i] = acc;
        pow_inv[i] = acc_inv;
        acc = mod_.mul(acc, psi_);
        acc_inv = mod_.mul(acc_inv, psi_inv);
    }
    build(fwd_, pow_fwd, simd::fwdUnreducedBound(q, logN_), ifma_ok,
          lanes);
    build(inv_, pow_inv, simd::invUnreducedBound(q, logN_), ifma_ok,
          lanes);

    nInv_ = mod_.inverse(n % q);
    nInvShoup_ = mod_.shoupPrecompute(nInv_);
    nInvShoup52_ = ifma_ok ? shoupPrecompute52(nInv_, q) : 0;
}

void
NttTable::build(Direction &dir, const std::vector<u64> &powers,
                u128 unreduced_bound, bool ifma, bool lanes)
{
    // Powers of psi stored in bit-reversed index order: tw[i] holds
    // psi^{bitrev(i)}. Every butterfly loop indexes the tables so that
    // entry (m + i) is the twiddle for block i at stage width m.
    const u64 q = mod_.value();
    dir.tw.resize(n_);
    dir.shoup.resize(n_);
    if (ifma)
        dir.shoup52.resize(n_);
    for (u64 i = 0; i < n_; ++i) {
        u64 r = bitReverse(static_cast<u32>(i), logN_);
        dir.tw[i] = powers[r];
        dir.shoup[i] = mod_.shoupPrecompute(dir.tw[i]);
        if (ifma)
            dir.shoup52[i] = shoupPrecompute52(dir.tw[i], q);
    }
    if (lanes) {
        dir.lane = laneOrder(dir.tw, n_);
        dir.laneShoup = laneOrder(dir.shoup, n_);
        if (ifma)
            dir.laneShoup52 = laneOrder(dir.shoup52, n_);
    }
    dir.unreduced52 = unreduced_bound < simd::kIfmaOperandBound;
    dir.unreduced64 = unreduced_bound <= ~u64{0};
}

simd::NttTwiddles
NttTable::Direction::view() const
{
    auto ptr = [](const std::vector<u64> &v) {
        return v.empty() ? nullptr : v.data();
    };
    return {ptr(tw),   ptr(shoup),     ptr(shoup52),
            ptr(lane), ptr(laneShoup), ptr(laneShoup52),
            unreduced52, unreduced64};
}

simd::NttTwiddles
NttTable::forwardTwiddles() const
{
    return fwd_.view();
}

simd::NttTwiddles
NttTable::inverseTwiddles() const
{
    return inv_.view();
}

void
NttTable::forward(std::span<u64> a) const
{
    ive_assert(a.size() == n_);
    simd::active().nttForwardLazy(a.data(), n_, mod_,
                                  forwardTwiddles());
}

void
NttTable::inverse(std::span<u64> a) const
{
    ive_assert(a.size() == n_);
    simd::active().nttInverseLazy(a.data(), n_, mod_,
                                  inverseTwiddles(), nInv_, nInvShoup_,
                                  nInvShoup52_);
}

void
NttTable::forwardStrict(std::span<u64> a) const
{
    ive_assert(a.size() == n_);
    kernels::nttForwardStrict(a, mod_, fwd_.tw, fwd_.shoup);
}

void
NttTable::inverseStrict(std::span<u64> a) const
{
    ive_assert(a.size() == n_);
    kernels::nttInverseStrict(a, mod_, inv_.tw, inv_.shoup, nInv_,
                              nInvShoup_);
}

} // namespace ive

