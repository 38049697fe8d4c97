#include "pir/kspir.hh"

#include "common/logging.hh"

namespace ive {

KsPirParams
KsPirParams::forDbSize(u64 db_bytes)
{
    KsPirParams p;
    p.base = PirParams::forDbSize(db_bytes, /*d0=*/64);
    return p;
}

BfvCiphertext
partialTrace(const HeContext &ctx, const BfvCiphertext &ct,
             const std::vector<EvkKey> &evks, int steps)
{
    ive_assert(steps >= 0 &&
               steps <= static_cast<int>(evks.size()));
    BfvCiphertext acc = ct;
    for (int t = 0; t < steps; ++t) {
        ive_assert(evks[t].r == ctx.n() / (u64{1} << t) + 1);
        BfvCiphertext rotated = subs(ctx, acc, evks[t]);
        addInPlace(ctx, acc, rotated);
    }
    return acc;
}

KsPir::KsPir(const HeContext &ctx, const KsPirParams &params, u64 seed)
    : ctx_(ctx), params_(params)
{
    params_.base.validate();
    ive_assert(params_.traceSteps >= 0 &&
               params_.traceSteps <= params_.base.expansionDepth());
    client_ = std::make_unique<PirClient>(ctx, params_.base, seed);
    keys_ = std::make_shared<const PirPublicKeys>(client_->genPublicKeys());
    db_ = std::make_unique<Database>(ctx, params_.base);
    server_ =
        std::make_unique<PirServer>(ctx, params_.base, db_.get(), keys_);
}

void
KsPir::setEntry(u64 entry, std::span<const u64> slots)
{
    ive_assert(slots.size() == params_.slotsPerEntry());
    std::vector<u64> coeffs(ctx_.n(), 0);
    u64 stride = params_.slotStride();
    for (u64 j = 0; j < slots.size(); ++j)
        coeffs[j * stride] = slots[j];
    db_->setEntry(entry, 0, coeffs);
}

void
KsPir::fillRandom(u64 seed)
{
    Rng rng(seed);
    std::vector<u64> slots(params_.slotsPerEntry());
    for (u64 e = 0; e < params_.base.numEntries(); ++e) {
        for (auto &s : slots)
            s = rng.uniform(ctx_.plainModulus());
        setEntry(e, slots);
    }
}

PirQuery
KsPir::makeQuery(u64 entry)
{
    return client_->makeQuery(entry, params_.traceSteps);
}

BfvCiphertext
KsPir::answer(const PirQuery &query) const
{
    BfvCiphertext resp = server_->processAllPlanes(query)[0];
    return partialTrace(ctx_, resp, keys_->evks, params_.traceSteps);
}

std::vector<u64>
KsPir::decode(const BfvCiphertext &response) const
{
    std::vector<u64> coeffs = client_->decode(response);
    std::vector<u64> slots(params_.slotsPerEntry());
    u64 stride = params_.slotStride();
    for (u64 j = 0; j < slots.size(); ++j)
        slots[j] = coeffs[j * stride];
    return slots;
}

std::vector<u64>
KsPir::expectedSlots(u64 entry) const
{
    std::vector<u64> coeffs = db_->entryCoeffs(entry);
    std::vector<u64> slots(params_.slotsPerEntry());
    u64 stride = params_.slotStride();
    for (u64 j = 0; j < slots.size(); ++j)
        slots[j] = coeffs[j * stride];
    return slots;
}

} // namespace ive
