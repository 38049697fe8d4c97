#include "pir/database.hh"

#include "common/logging.hh"

namespace ive {

Database::Database(const HeContext &ctx, const PirParams &params)
    : ctx_(ctx), params_(params)
{
    params_.validate();
    entries_.resize(numEntries() * static_cast<u64>(params_.planes));
}

void
Database::fill(const Generator &gen)
{
    for (int plane = 0; plane < params_.planes; ++plane) {
        for (u64 e = 0; e < numEntries(); ++e)
            setEntry(e, plane, gen(e, plane));
    }
}

Database
Database::random(const HeContext &ctx, const PirParams &params, u64 seed)
{
    Database db(ctx, params);
    db.fill([&](u64 entry, int plane) {
        // Per-(entry, plane) stream: content is independent of fill
        // order.
        Rng rng(seed + entry * 0x9e3779b97f4a7c15ULL +
                static_cast<u64>(plane) * 0xbf58476d1ce4e5b9ULL);
        std::vector<u64> coeffs(ctx.n());
        for (auto &c : coeffs)
            c = rng.uniform(ctx.plainModulus());
        return coeffs;
    });
    return db;
}

u64
Database::index(u64 entry, int plane) const
{
    ive_assert(entry < numEntries());
    ive_assert(plane >= 0 && plane < params_.planes);
    return static_cast<u64>(plane) * numEntries() + entry;
}

void
Database::setEntry(u64 entry, int plane, std::span<const u64> coeffs)
{
    ive_assert(coeffs.size() == ctx_.n());
    entries_[index(entry, plane)] = liftPlain(ctx_, coeffs);
}

const RnsPoly &
Database::entry(u64 entry, int plane) const
{
    return entries_[index(entry, plane)];
}

std::vector<u64>
Database::entryCoeffs(u64 entry, int plane) const
{
    const Ring &ring = ctx_.ring();
    RnsPoly p = this->entry(entry, plane);
    p.fromNtt(ring);
    std::vector<u64> out(ring.n);
    std::vector<u64> res(ring.k());
    for (u64 i = 0; i < ring.n; ++i) {
        p.coeffResidues(i, res);
        // Raw values are < P << Q, so iCRT recovers them exactly.
        out[i] = static_cast<u64>(ring.base.fromRns(res));
    }
    return out;
}

} // namespace ive
