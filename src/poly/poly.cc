#include "poly/poly.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "poly/kernels.hh"

namespace ive {

Ring::Ring(u64 n_in, const std::vector<u64> &primes)
    : n(n_in), base(primes)
{
    ive_assert(isPow2(n) && n >= 4);
    for (u64 p : primes)
        ntt.emplace_back(p, n);
}

RnsPoly::RnsPoly(const Ring &ring, Domain domain)
    : n_(ring.n), k_(ring.k()), domain_(domain),
      data_(ring.words(), 0)
{
}

std::span<u64>
RnsPoly::residues(int p)
{
    return {data_.data() + idx(p, 0), n_};
}

std::span<const u64>
RnsPoly::residues(int p) const
{
    return {data_.data() + idx(p, 0), n_};
}

void
RnsPoly::coeffResidues(u64 i, std::span<u64> out) const
{
    ive_assert(domain_ == Domain::Coeff);
    ive_assert(static_cast<int>(out.size()) == k_);
    for (int p = 0; p < k_; ++p)
        out[p] = data_[idx(p, i)];
}

void
RnsPoly::addInPlace(const Ring &ring, const RnsPoly &other)
{
    ive_assert(domain_ == other.domain_ && n_ == other.n_);
    for (int p = 0; p < k_; ++p) {
        kernels::addVec(data_.data() + idx(p, 0),
                        other.data_.data() + other.idx(p, 0), n_,
                        ring.base.modulus(p).value());
    }
}

void
RnsPoly::subInPlace(const Ring &ring, const RnsPoly &other)
{
    ive_assert(domain_ == other.domain_ && n_ == other.n_);
    for (int p = 0; p < k_; ++p) {
        kernels::subVec(data_.data() + idx(p, 0),
                        other.data_.data() + other.idx(p, 0), n_,
                        ring.base.modulus(p).value());
    }
}

void
RnsPoly::negateInPlace(const Ring &ring)
{
    for (int p = 0; p < k_; ++p) {
        kernels::negVec(data_.data() + idx(p, 0), n_,
                        ring.base.modulus(p).value());
    }
}

void
RnsPoly::mulInPlace(const Ring &ring, const RnsPoly &other)
{
    ive_assert(isNtt() && other.isNtt());
    for (int p = 0; p < k_; ++p) {
        kernels::mulVec(data_.data() + idx(p, 0),
                        other.data_.data() + other.idx(p, 0), n_,
                        ring.base.modulus(p));
    }
}

void
RnsPoly::mulAccumulate(const Ring &ring, const RnsPoly &a,
                       const RnsPoly &b)
{
    ive_assert(isNtt() && a.isNtt() && b.isNtt());
    for (int p = 0; p < k_; ++p) {
        kernels::mulAccVec(data_.data() + idx(p, 0),
                           a.data_.data() + a.idx(p, 0),
                           b.data_.data() + b.idx(p, 0), n_,
                           ring.base.modulus(p));
    }
}

void
RnsPoly::scalarMulInPlace(const Ring &ring, std::span<const u64> residues)
{
    ive_assert(static_cast<int>(residues.size()) == k_);
    for (int p = 0; p < k_; ++p) {
        const Modulus &mod = ring.base.modulus(p);
        u64 s = residues[p];
        u64 s_shoup = mod.shoupPrecompute(s);
        u64 *dst = data_.data() + idx(p, 0);
        for (u64 i = 0; i < n_; ++i)
            dst[i] = mod.mulShoup(dst[i], s, s_shoup);
    }
}

void
RnsPoly::toNtt(const Ring &ring)
{
    ive_assert(domain_ == Domain::Coeff);
    for (int p = 0; p < k_; ++p)
        ring.ntt[p].forward(residues(p));
    domain_ = Domain::Ntt;
}

void
RnsPoly::fromNtt(const Ring &ring)
{
    ive_assert(domain_ == Domain::Ntt);
    for (int p = 0; p < k_; ++p)
        ring.ntt[p].inverse(residues(p));
    domain_ = Domain::Coeff;
}

void
RnsPoly::applyCoeffMap(const Ring &ring, std::span<const u64> map,
                       RnsPoly &out) const
{
    // Prime-major: both the read stream and every write stay inside
    // one residue plane, instead of striding across all planes per
    // coefficient. map[i] = (destination << 1) | flip, a bijection on
    // [0, n), so `out` is fully overwritten.
    ive_assert(&out != this);
    ive_assert(domain_ == Domain::Coeff);
    ive_assert(map.size() >= n_);
    out.n_ = n_;
    out.k_ = k_;
    out.domain_ = Domain::Coeff;
    ive_assert(out.data_.size() == data_.size());
    for (int p = 0; p < k_; ++p) {
        u64 q = ring.base.modulus(p).value();
        const u64 *src = data_.data() + idx(p, 0);
        u64 *dst = out.data_.data() + out.idx(p, 0);
        kernels::applyCoeffMapVec(dst, src, map.data(), n_, q);
    }
}

void
RnsPoly::automorphismMap(u64 n, u64 r, std::span<u64> map_out)
{
    ive_assert(r % 2 == 1);
    ive_assert(map_out.size() >= n);
    u64 two_n = 2 * n;
    for (u64 i = 0; i < n; ++i) {
        u64 j = (i * r) % two_n;
        u64 flip = j >= n ? 1 : 0;
        u64 pos = flip ? j - n : j;
        map_out[i] = (pos << 1) | flip;
    }
}

void
RnsPoly::nttAutomorphismMap(u64 n, u64 r, std::span<u64> map_out)
{
    ive_assert(r % 2 == 1 && r < 2 * n);
    ive_assert(map_out.size() >= n);
    // Slot i holds a(psi^(2 brv(i) + 1)), and sigma_r(a) there is
    // a(psi^(r (2 brv(i) + 1))): slot brv(j) with 2j + 1 = r (2 brv(i)
    // + 1) mod 2n, i.e. j = r brv(i) + (r - 1) / 2 mod n. Each output
    // slot i reads input slot brv(j); scatter form: map[brv(j)] = i.
    const int bits = log2Exact(n);
    for (u64 i = 0; i < n; ++i) {
        const u64 b = bitReverse(static_cast<u32>(i), bits);
        const u64 j = (r * b + (r - 1) / 2) & (n - 1);
        map_out[bitReverse(static_cast<u32>(j), bits)] = i << 1;
    }
}

RnsPoly
RnsPoly::automorphism(const Ring &ring, u64 r) const
{
    RnsPoly out(ring, Domain::Coeff);
    std::vector<u64> map(n_);
    automorphismMap(n_, r, map);
    applyCoeffMap(ring, map, out);
    return out;
}

RnsPoly
RnsPoly::monomialMul(const Ring &ring, i64 e) const
{
    std::vector<u64> map(n_);
    u64 two_n = 2 * n_;
    // Normalize the exponent into [0, 2n).
    u64 shift = static_cast<u64>(((e % static_cast<i64>(two_n)) +
                                  static_cast<i64>(two_n)) %
                                 static_cast<i64>(two_n));
    for (u64 i = 0; i < n_; ++i) {
        u64 j = i + shift;
        if (j >= two_n)
            j -= two_n;
        u64 flip = j >= n_ ? 1 : 0;
        u64 pos = flip ? j - n_ : j;
        map[i] = (pos << 1) | flip;
    }
    RnsPoly out(ring, Domain::Coeff);
    applyCoeffMap(ring, map, out);
    return out;
}

RnsPoly
RnsPoly::monomialNtt(const Ring &ring, i64 e)
{
    RnsPoly mono(ring, Domain::Coeff);
    u64 two_n = 2 * ring.n;
    u64 shift = static_cast<u64>(((e % static_cast<i64>(two_n)) +
                                  static_cast<i64>(two_n)) %
                                 static_cast<i64>(two_n));
    bool flip = shift >= ring.n;
    u64 pos = flip ? shift - ring.n : shift;
    for (int p = 0; p < ring.k(); ++p) {
        u64 q = ring.base.modulus(p).value();
        mono.set(p, pos, flip ? q - 1 : 1);
    }
    mono.toNtt(ring);
    return mono;
}

RnsPoly
RnsPoly::uniform(const Ring &ring, Rng &rng, Domain domain)
{
    RnsPoly out(ring, domain);
    for (int p = 0; p < ring.k(); ++p) {
        u64 q = ring.base.modulus(p).value();
        for (u64 i = 0; i < ring.n; ++i)
            out.set(p, i, rng.uniform(q));
    }
    return out;
}

RnsPoly
RnsPoly::ternary(const Ring &ring, Rng &rng)
{
    RnsPoly out(ring, Domain::Coeff);
    std::vector<u64> res(ring.k());
    for (u64 i = 0; i < ring.n; ++i) {
        i64 v = static_cast<i64>(rng.uniform(3)) - 1;
        ring.base.toRnsSigned(v, res);
        for (int p = 0; p < ring.k(); ++p)
            out.set(p, i, res[p]);
    }
    return out;
}

RnsPoly
RnsPoly::noise(const Ring &ring, Rng &rng)
{
    RnsPoly out(ring, Domain::Coeff);
    std::vector<u64> res(ring.k());
    for (u64 i = 0; i < ring.n; ++i) {
        // Sample once, then embed the same signed value in every prime.
        u64 q0 = ring.base.modulus(0).value();
        u64 v0 = rng.cbdNoise(q0);
        i64 v = v0 > q0 / 2 ? static_cast<i64>(v0) - static_cast<i64>(q0)
                            : static_cast<i64>(v0);
        ring.base.toRnsSigned(v, res);
        for (int p = 0; p < ring.k(); ++p)
            out.set(p, i, res[p]);
    }
    return out;
}

void
saveRnsPoly(ByteWriter &w, const RnsPoly &poly)
{
    w.writeU8(poly.isNtt() ? 1 : 0);
    // One bulk write per residue plane; byte-identical to the old
    // word-at-a-time loop.
    for (int p = 0; p < poly.k(); ++p)
        w.writeU64Span(poly.residues(p));
}

RnsPoly
loadRnsPoly(ByteReader &r, const Ring &ring)
{
    u8 domain = r.readU8();
    if (domain > 1)
        r.fail(strprintf("invalid polynomial domain tag %u", domain));
    RnsPoly out(ring, domain ? Domain::Ntt : Domain::Coeff);
    for (int p = 0; p < ring.k(); ++p) {
        // Bulk-read the plane, then range-check every residue: only
        // canonical encodings decode, exactly as before.
        std::span<u64> plane = out.residues(p);
        r.readU64Span(plane);
        u64 q = ring.base.modulus(p).value();
        for (u64 i = 0; i < ring.n; ++i) {
            if (plane[i] >= q)
                r.fail(strprintf(
                    "residue %llu out of range for prime %d",
                    static_cast<unsigned long long>(plane[i]), p));
        }
    }
    return out;
}

} // namespace ive
