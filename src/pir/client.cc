#include "pir/client.hh"

#include "common/logging.hh"

namespace ive {

u64
PirPublicKeys::byteSize(const HeContext &ctx) const
{
    u64 total = 0;
    for (const auto &evk : evks) {
        (void)evk;
        total += EvkKey::byteSize(ctx);
    }
    total += RgswCiphertext::byteSize(ctx, rgswOfSecret.ell);
    return total;
}

std::string
PirPublicKeys::firstNonNttRow() const
{
    auto side = [](const BfvCiphertext &row) {
        return !row.a.isNtt() ? "a" : !row.b.isNtt() ? "b" : nullptr;
    };
    for (size_t t = 0; t < evks.size(); ++t)
        for (size_t k = 0; k < evks[t].rows.size(); ++k)
            if (const char *s = side(evks[t].rows[k]))
                return strprintf("evk %zu row %zu %s-side", t, k, s);
    for (size_t k = 0; k < rgswOfSecret.rows.size(); ++k)
        if (const char *s = side(rgswOfSecret.rows[k]))
            return strprintf("RGSW(s) row %zu %s-side", k, s);
    return {};
}

PirClient::PirClient(const HeContext &ctx, const PirParams &params,
                     u64 seed)
    : ctx_(ctx), params_(params), rng_(seed), sk_(ctx, rng_)
{
    params_.validate();
    u64 two_pow_l = u64{1} << params_.expansionDepth();
    inv2L_ = ctx.ring().base.inverseResidues(two_pow_l);
}

PirPublicKeys
PirClient::genPublicKeys()
{
    PirPublicKeys keys;
    int depth = params_.expansionDepth();
    for (int t = 0; t < depth; ++t) {
        u64 r = ctx_.n() / (u64{1} << t) + 1;
        keys.evks.push_back(genEvk(ctx_, sk_, rng_, r));
    }
    keys.rgswOfSecret = encryptRgswPoly(ctx_, sk_, rng_, sk_.sNtt());
    return keys;
}

PirQuery
PirClient::makeQuery(u64 entry_index, int extra_inv_pow2)
{
    ive_assert(entry_index < params_.numEntries());
    const Ring &ring = ctx_.ring();
    const Gadget &g = ctx_.gadgetRgsw();

    u64 i_star = entry_index % params_.d0;
    u64 k_star = entry_index / params_.d0;

    RnsPoly payload(ring, Domain::Coeff);

    // Initial dimension: Delta * inv(2^(L + extra)) at coefficient i*.
    std::vector<u64> extra_inv =
        ring.base.inverseResidues(u64{1} << extra_inv_pow2);
    for (int p = 0; p < ring.k(); ++p) {
        const Modulus &mod = ring.base.modulus(p);
        u64 v = mod.mul(ctx_.deltaRns()[p], inv2L_[p]);
        payload.set(p, i_star, mod.mul(v, extra_inv[p]));
    }

    // Subsequent dimensions: bit_t * z^k * inv(2^L) at the gadget slots.
    for (int t = 0; t < params_.d; ++t) {
        u64 bit = (k_star >> t) & 1;
        if (bit == 0)
            continue;
        for (int k = 0; k < g.ell(); ++k) {
            u64 pos = params_.d0 +
                      static_cast<u64>(t) * g.ell() +
                      static_cast<u64>(k);
            auto zk = g.zPowResidues(k);
            for (int p = 0; p < ring.k(); ++p) {
                const Modulus &mod = ring.base.modulus(p);
                payload.set(p, pos, mod.mul(zk[p], inv2L_[p]));
            }
        }
    }

    payload.toNtt(ring);
    return {encryptPayload(ctx_, sk_, rng_, payload)};
}

std::vector<u64>
PirClient::decode(const BfvCiphertext &response) const
{
    return decrypt(ctx_, sk_, response);
}

NoiseReport
PirClient::responseNoise(const BfvCiphertext &response,
                         std::span<const u64> expected) const
{
    return measureNoise(ctx_, sk_, response, expected);
}

} // namespace ive
