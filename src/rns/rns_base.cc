#include "rns/rns_base.hh"

#include <cmath>

#include "common/logging.hh"
#include "modmath/primes.hh"

namespace ive {

RnsBase::RnsBase(const std::vector<u64> &primes)
{
    ive_assert(!primes.empty());
    double log_q = 0.0;
    for (u64 p : primes) {
        ive_assert(isPrime(p));
        moduli_.emplace_back(p);
        log_q += std::log2(static_cast<double>(p));
    }
    // All 128-bit intermediates (sums of size() terms < Q) must fit.
    ive_assert(log_q + std::log2(static_cast<double>(primes.size())) <
               127.0);
    logQ_ = log_q;

    q_ = 1;
    for (u64 p : primes)
        q_ *= p;

    for (int i = 0; i < size(); ++i) {
        u128 hat = 1;
        for (int j = 0; j < size(); ++j) {
            if (j != i)
                hat *= moduli_[j].value();
        }
        qHat_.push_back(hat);
        u64 hat_mod_qi = static_cast<u64>(hat % moduli_[i].value());
        qHatInvModQi_.push_back(moduli_[i].inverse(hat_mod_qi));
        qHatInvShoup_.push_back(
            moduli_[i].shoupPrecompute(qHatInvModQi_.back()));
    }

    // Garner constants for the vector digit decomposer: row i holds
    // -(q_0 ... q_{j-1}) / (q_0 ... q_{i-1}) mod q_i for j < i, then
    // 1 / (q_0 ... q_{i-1}) mod q_i. Their 2^32 Shoup companions keep
    // every lane product inside one 32 x 32-bit multiply, so the
    // tables exist only when every prime is below 2^32.
    bool below32 = true;
    for (const Modulus &m : moduli_)
        below32 = below32 && m.value() < (u64{1} << 32);
    if (!below32)
        return;
    for (int i = 1; i < size(); ++i) {
        const Modulus &mi = moduli_[i];
        u64 prefix = 1; // q_0 ... q_{j-1} mod q_i
        std::vector<u64> prefixes;
        for (int j = 0; j <= i; ++j) {
            prefixes.push_back(prefix);
            prefix = mi.mul(prefix, moduli_[j].value() % mi.value());
        }
        u64 inv = mi.inverse(prefixes[static_cast<size_t>(i)]);
        for (int j = 0; j <= i; ++j) {
            u64 c = j == i ? inv
                           : mi.neg(mi.mul(prefixes[static_cast<size_t>(j)],
                                           inv));
            garner_.push_back(c);
            garnerShoup32_.push_back(static_cast<u64>(
                (static_cast<u128>(c) << 32) / mi.value()));
        }
    }
}

simd::DigitPlan
RnsBase::digitPlan(int log_z, int ell) const
{
    simd::DigitPlan plan;
    plan.k = size();
    plan.moduli = moduli_.data();
    plan.qHat = qHat_.data();
    plan.qHatInv = qHatInvModQi_.data();
    plan.qHatInvShoup = qHatInvShoup_.data();
    plan.bigQ = q_;
    if (!garner_.empty()) {
        plan.garner = garner_.data();
        plan.garnerShoup32 = garnerShoup32_.data();
    }
    plan.logZ = log_z;
    plan.ell = ell;
    return plan;
}

void
RnsBase::toRns(u128 x, std::span<u64> out) const
{
    ive_assert(static_cast<int>(out.size()) == size());
    for (int i = 0; i < size(); ++i)
        out[i] = static_cast<u64>(x % moduli_[i].value());
}

void
RnsBase::toRnsSigned(i64 x, std::span<u64> out) const
{
    ive_assert(static_cast<int>(out.size()) == size());
    for (int i = 0; i < size(); ++i) {
        u64 q = moduli_[i].value();
        i64 m = x % static_cast<i64>(q);
        if (m < 0)
            m += static_cast<i64>(q);
        out[i] = static_cast<u64>(m);
    }
}

u128
RnsBase::fromRns(std::span<const u64> residues) const
{
    ive_assert(static_cast<int>(residues.size()) == size());
    // Eq. 3: x = sum_i ([x_i * (Q/q_i)^{-1}] mod q_i) * (Q/q_i) mod Q.
    // This runs once per coefficient of every gadget decomposition, so
    // the fixed-multiplicand products are Shoup multiplies and the
    // final reduction is conditional subtracts: each term is < Q, so
    // acc < size() * Q and at most size() - 1 subtracts canonicalize —
    // no 128-bit division on the hot path.
    u128 acc = 0;
    for (int i = 0; i < size(); ++i) {
        u64 t = moduli_[i].mulShoup(residues[i], qHatInvModQi_[i],
                                    qHatInvShoup_[i]);
        acc += qHat_[i] * t;
    }
    while (acc >= q_)
        acc -= q_;
    return acc;
}

i128
RnsBase::centered(u128 x) const
{
    if (x > q_ / 2)
        return static_cast<i128>(x) - static_cast<i128>(q_);
    return static_cast<i128>(x);
}

std::vector<u64>
RnsBase::deltaResidues(u64 p) const
{
    u128 delta = q_ / p;
    std::vector<u64> out(size());
    toRns(delta, out);
    return out;
}

std::vector<u64>
RnsBase::inverseResidues(u64 x) const
{
    std::vector<u64> out(size());
    for (int i = 0; i < size(); ++i)
        out[i] = moduli_[i].inverse(x % moduli_[i].value());
    return out;
}

} // namespace ive
