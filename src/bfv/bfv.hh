/**
 * @file
 * BFV ciphertexts and linear homomorphic operations.
 *
 * A BfvCiphertext is a pair (a, b) in R_Q^2 with b = -a*s + e + payload.
 * The payload of a "data" ciphertext is Delta*m for a plaintext
 * m in R_P (P = 2^32 by default); query ciphertexts instead embed
 * arbitrary mod-Q payloads (e.g. Delta * inv(2^L) * X^{i*}), which is
 * how the expansion-tree doubling is pre-compensated (see pir/client).
 *
 * Both polynomials are kept in NTT form; only Dcp-style operations drop
 * to coefficient form internally.
 */

#ifndef IVE_BFV_BFV_HH
#define IVE_BFV_BFV_HH

#include <vector>

#include "bfv/context.hh"
#include "bfv/keys.hh"
#include "poly/workspace.hh"

namespace ive {

struct BfvCiphertext
{
    RnsPoly a;
    RnsPoly b;

    /** Serialized size in bytes at `bits` per residue word. */
    static u64
    byteSize(const HeContext &ctx, double bits = 28.0)
    {
        return static_cast<u64>(2 * ctx.ring().words() * bits / 8.0);
    }
};

/**
 * RAII lease of a scratch ciphertext backed by PolyWorkspace pool
 * buffers (both polys tagged NTT; contents unspecified). Strictly
 * task-scoped: never move the polys out — they return to the pool on
 * destruction.
 */
class CtLease
{
  public:
    CtLease(PolyWorkspace &ws, const Ring &ring) : ws_(&ws)
    {
        ct_.a = ws.takePoly(ring, Domain::Ntt);
        ct_.b = ws.takePoly(ring, Domain::Ntt);
    }
    ~CtLease()
    {
        ws_->givePoly(std::move(ct_.a));
        ws_->givePoly(std::move(ct_.b));
    }

    CtLease(const CtLease &) = delete;
    CtLease &operator=(const CtLease &) = delete;

    BfvCiphertext &operator*() { return ct_; }
    BfvCiphertext *operator->() { return &ct_; }

  private:
    PolyWorkspace *ws_;
    BfvCiphertext ct_;
};

/** Encryption of 0: (a, -a*s + e), NTT form. */
BfvCiphertext encryptZero(const HeContext &ctx, const SecretKey &sk,
                          Rng &rng);

/**
 * Encrypts a payload given directly in R_Q (NTT form). The caller is
 * responsible for any Delta scaling.
 */
BfvCiphertext encryptPayload(const HeContext &ctx, const SecretKey &sk,
                             Rng &rng, const RnsPoly &payload_ntt);

/**
 * Encrypts a plaintext given as n coefficients mod P, scaling by Delta.
 */
BfvCiphertext encryptPlain(const HeContext &ctx, const SecretKey &sk,
                           Rng &rng, std::span<const u64> plain_mod_p);

/** Phase b + a*s in NTT form (payload + noise). */
RnsPoly phaseOf(const HeContext &ctx, const SecretKey &sk,
                const BfvCiphertext &ct);

/** Decrypts to n coefficients mod P (rounded division by Delta). */
std::vector<u64> decrypt(const HeContext &ctx, const SecretKey &sk,
                         const BfvCiphertext &ct);

/** Embeds plain (mod P) as a Delta-scaled NTT polynomial. */
RnsPoly encodePlain(const HeContext &ctx, std::span<const u64> plain_mod_p);

/** Lifts plain (mod P) into R_Q *without* Delta scaling, NTT form. */
RnsPoly liftPlain(const HeContext &ctx, std::span<const u64> plain_mod_p);

void addInPlace(const HeContext &ctx, BfvCiphertext &acc,
                const BfvCiphertext &x);
void subInPlace(const HeContext &ctx, BfvCiphertext &acc,
                const BfvCiphertext &x);

/** acc += plain o ct, the RowSel accumulation step (all NTT form). */
void plainMulAcc(const HeContext &ctx, BfvCiphertext &acc,
                 const RnsPoly &plain_ntt, const BfvCiphertext &ct);

/** ct *= X^e using a precomputed NTT monomial. */
void monomialMulInPlace(const HeContext &ctx, BfvCiphertext &ct,
                        const RnsPoly &monomial_ntt);

/**
 * ct *= X^e using a precomputed NTT monomial plus its x2^64 Shoup
 * companions (prime-major, k*n words): a fixed multiplicand turns
 * every element's Barrett reduction into a Shoup multiply. Values are
 * identical to the plain overload.
 */
void monomialMulInPlace(const HeContext &ctx, BfvCiphertext &ct,
                        const RnsPoly &monomial_ntt,
                        std::span<const u64> monomial_shoup);

/** Wire encoding: the a then b polynomials (see saveRnsPoly). */
void saveBfvCiphertext(ByteWriter &w, const BfvCiphertext &ct);
/**
 * Decodes what saveBfvCiphertext wrote. Every ciphertext the library
 * keeps is in NTT form and nothing transforms one it loads, so a side
 * tagged with the coefficient domain throws SerializeError; evk and
 * RGSW rows load through here too.
 */
BfvCiphertext loadBfvCiphertext(ByteReader &r, const Ring &ring);

/**
 * Exact wire size of one serialized BFV ciphertext: two polynomials
 * of a domain byte plus k*n residue words each. Decoders use this to
 * vet declared element counts before allocating.
 */
inline u64
bfvCiphertextWireBytes(const Ring &ring)
{
    return 2 * (1 + ring.words() * 8);
}

} // namespace ive

#endif // IVE_BFV_BFV_HH
