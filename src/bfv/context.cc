#include "bfv/context.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "modmath/primes.hh"

namespace ive {

namespace {

std::vector<u64>
resolvePrimes(const HeContextConfig &cfg)
{
    if (!cfg.primes.empty())
        return cfg.primes;
    return {kIvePrimes.begin(), kIvePrimes.end()};
}

} // namespace

HeContext::HeContext(const HeContextConfig &cfg)
    : cfg_(cfg), ring_(cfg.n, resolvePrimes(cfg)),
      plainModulus_(cfg.plainModulus)
{
    ive_assert(plainModulus_ >= 2);
    // Delta must dominate P by a wide margin or there is no noise room.
    ive_assert(ring_.base.logQ() >
               std::log2(static_cast<double>(plainModulus_)) + 20);
    delta_ = ring_.base.delta(plainModulus_);
    deltaRns_.resize(ring_.k());
    ring_.base.toRns(delta_, deltaRns_);
    gadgetKs_ =
        std::make_unique<Gadget>(&ring_.base, cfg.logZKs, cfg.ellKs);
    gadgetRgsw_ =
        std::make_unique<Gadget>(&ring_.base, cfg.logZRgsw, cfg.ellRgsw);
    maps_.resize(ring_.n);
    monomials_.resize(log2Exact(ring_.n));
}

const AutomorphismMaps &
HeContext::automorphismMaps(u64 r) const
{
    const u64 n = ring_.n;
    ive_assert(r % 2 == 1 && r < 2 * n);
    LockGuard lock(mapsMu_);
    std::unique_ptr<const AutomorphismMaps> &slot = maps_[(r - 1) / 2];
    if (!slot) {
        auto maps = std::make_unique<AutomorphismMaps>();
        maps->coeff.resize(n);
        maps->ntt.resize(n);
        RnsPoly::automorphismMap(n, r, maps->coeff);
        RnsPoly::nttAutomorphismMap(n, r, maps->ntt);
        slot = std::move(maps);
    }
    return *slot;
}

const ExpansionMonomial &
HeContext::expansionMonomial(int t) const
{
    const u64 n = ring_.n;
    ive_assert(t >= 0 && t < log2Exact(n));
    LockGuard lock(monomialsMu_);
    std::unique_ptr<const ExpansionMonomial> &slot = monomials_[t];
    if (!slot) {
        auto m = std::make_unique<ExpansionMonomial>();
        m->ntt = RnsPoly::monomialNtt(ring_, -static_cast<i64>(u64{1} << t));
        m->shoup.resize(ring_.words());
        for (int p = 0; p < ring_.k(); ++p) {
            const Modulus &mod = ring_.base.modulus(p);
            std::span<const u64> plane = m->ntt.residues(p);
            for (u64 i = 0; i < n; ++i)
                m->shoup[static_cast<u64>(p) * n + i] =
                    mod.shoupPrecompute(plane[i]);
        }
        slot = std::move(m);
    }
    return *slot;
}

} // namespace ive
