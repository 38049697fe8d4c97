/**
 * @file
 * Polynomials in R_Q = Z_Q[X]/(X^n + 1) under RNS.
 *
 * An RnsPoly stores k = |primes| length-n residue vectors (prime-major
 * layout) and tracks whether it currently holds coefficients or NTT
 * evaluations. With RNS + NTT a polynomial mult is an element-wise mult
 * between length-4n vectors (paper SII-B), which is what the
 * coefficient-level parallelism of RowSel exploits.
 */

#ifndef IVE_POLY_POLY_HH
#define IVE_POLY_POLY_HH

#include <span>
#include <vector>

#include "common/align.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "ntt/ntt.hh"
#include "rns/rns_base.hh"

namespace ive {

/** Ring context: RNS basis plus one NTT table per prime. */
struct Ring
{
    Ring(u64 n, const std::vector<u64> &primes);

    u64 n;
    RnsBase base;
    std::vector<NttTable> ntt;

    int k() const { return base.size(); }
    /** Words in one polynomial (k * n). */
    u64 words() const { return static_cast<u64>(base.size()) * n; }
};

enum class Domain { Coeff, Ntt };

class RnsPoly
{
  public:
    RnsPoly() = default;
    RnsPoly(const Ring &ring, Domain domain);

    u64 n() const { return n_; }
    int k() const { return k_; }
    Domain domain() const { return domain_; }
    bool isNtt() const { return domain_ == Domain::Ntt; }

    /** Residue vector for prime index p. */
    std::span<u64> residues(int p);
    std::span<const u64> residues(int p) const;

    u64 at(int p, u64 i) const { return data_[idx(p, i)]; }
    void set(int p, u64 i, u64 v) { data_[idx(p, i)] = v; }

    /** All residues of coefficient i (coeff domain only). */
    void coeffResidues(u64 i, std::span<u64> out) const;

    // --- element-wise arithmetic (domains must match) ---
    void addInPlace(const Ring &ring, const RnsPoly &other);
    void subInPlace(const Ring &ring, const RnsPoly &other);
    void negateInPlace(const Ring &ring);

    /** this = this o other (element-wise; both NTT domain). */
    void mulInPlace(const Ring &ring, const RnsPoly &other);

    /** this += a o b (all NTT domain). Core of RowSel accumulation. */
    void mulAccumulate(const Ring &ring, const RnsPoly &a,
                       const RnsPoly &b);

    /** this *= scalar given as per-prime residues. */
    void scalarMulInPlace(const Ring &ring, std::span<const u64> residues);

    // --- domain conversion ---
    void toNtt(const Ring &ring);
    void fromNtt(const Ring &ring);

    // --- structural maps (coefficient domain) ---
    /**
     * Automorphism X -> X^r (r odd): coefficient i moves to position
     * i*r mod n with sign flip when i*r mod 2n >= n.
     */
    RnsPoly automorphism(const Ring &ring, u64 r) const;

    /**
     * The (pos << 1 | flip) coefficient map of the automorphism
     * X -> X^r on a degree-n ring, for reuse across several
     * applyCoeffMap calls with the same rotation (key switching maps
     * both ciphertext polynomials with one map).
     */
    static void automorphismMap(u64 n, u64 r, std::span<u64> map_out);

    /**
     * The same automorphism on NTT-form planes (NttTable::forward's
     * bit-reversed slot order): a pure slot permutation with no sign
     * flips, in the same (pos << 1) form, so applyCoeffMap applies it.
     * sigma_r(a) then never leaves NTT form.
     */
    static void nttAutomorphismMap(u64 n, u64 r, std::span<u64> map_out);

    /**
     * Applies a map built by automorphismMap (or the monomial variant)
     * prime-major: out is fully overwritten, domain set to Coeff.
     * `out` must not alias this.
     */
    void applyCoeffMap(const Ring &ring, std::span<const u64> map,
                       RnsPoly &out) const;

    /**
     * Multiply by the monomial X^e (e may be negative). Coefficient
     * domain only: a negacyclic rotation with sign flips. NTT-domain
     * callers multiply by a precomputed NTT(X^e) instead.
     */
    RnsPoly monomialMul(const Ring &ring, i64 e) const;

    /** NTT-domain image of the monomial X^e (e may be negative). */
    static RnsPoly monomialNtt(const Ring &ring, i64 e);

    // --- sampling ---
    static RnsPoly uniform(const Ring &ring, Rng &rng, Domain domain);
    static RnsPoly ternary(const Ring &ring, Rng &rng);
    static RnsPoly noise(const Ring &ring, Rng &rng);

    bool operator==(const RnsPoly &other) const = default;

  private:
    friend class PolyWorkspace;

    /** Retags the domain without touching data: pooled-buffer reuse
     *  only (PolyWorkspace), never a domain conversion. */
    void setDomainUnchecked(Domain d) { domain_ = d; }

    size_t
    idx(int p, u64 i) const
    {
        return static_cast<size_t>(p) * n_ + i;
    }

    u64 n_ = 0;
    int k_ = 0;
    Domain domain_ = Domain::Coeff;
    // Cache-line aligned so residue planes feed full-width vector
    // loads (the SIMD kernels tolerate unaligned data; alignment is a
    // performance contract, see common/align.hh).
    AlignedU64Vec data_;
};

/** Wire encoding: domain byte, then k*n residue words (prime-major). */
void saveRnsPoly(ByteWriter &w, const RnsPoly &poly);

/**
 * Reads a polynomial that must match the ring's (n, k); every residue
 * is checked against its prime so only canonical encodings decode.
 * Throws SerializeError on any mismatch.
 */
RnsPoly loadRnsPoly(ByteReader &r, const Ring &ring);

} // namespace ive

#endif // IVE_POLY_POLY_HH
