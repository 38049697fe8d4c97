/**
 * @file
 * Runtime-dispatched SIMD backends for the polynomial hot kernels.
 *
 * IVE's versatile processing element serves NTT butterflies, dyadic
 * MACs and automorphism permutations from one datapath (paper SIII);
 * this layer is the software analogue: one dispatch table routes every
 * hot kernel to the widest vector unit the CPU offers. Three backends:
 *
 *  - scalar  : portable reference, bit-for-bit the PR-4 kernels
 *  - avx2    : 4-lane u64 ops; 64x64 products via 2x32-bit vpmuludq
 *              splits (no 64-bit multiplier on AVX2)
 *  - avx512  : 8-lane u64 ops (needs AVX-512 F + DQ for vpmullq);
 *              when the CPU also has AVX-512 IFMA and the modulus fits
 *              the 52-bit datapath (q < 2^50), the NTT butterflies run
 *              Shoup multiplies on the vpmadd52 52-bit multipliers
 *              using the x2^52 companion twiddles NttTable precomputes.
 *              Both AVX-512 transforms share one schedule
 *              (avx512_ntt.hh): radix-4 passes over the wide stages and
 *              a 64-coefficient register block for the last six
 *
 * Every backend computes bit-identical canonical outputs for the same
 * inputs (lazy intermediates may differ by multiples of q; the final
 * canonicalization erases the difference), so serving responses stay
 * byte-identical to the committed goldens under any backend —
 * tests/test_simd.cc sweeps all of them against scalar.
 *
 * Selection happens once, at first use: cpuid-derived feature bits
 * (via __builtin_cpu_supports, which also honors OS XSAVE state) pick
 * the best runnable backend; the IVE_FORCE_ISA=scalar|avx2|avx512
 * environment variable overrides it (aborting loudly if the forced ISA
 * cannot run on this CPU, so a misconfigured CI run cannot silently
 * pass on the wrong backend). The per-ISA implementations live in
 * separate translation units compiled with per-file -m flags, so the
 * binary itself runs on any x86-64 (non-x86 builds get scalar only).
 */

#ifndef IVE_POLY_SIMD_SIMD_HH
#define IVE_POLY_SIMD_SIMD_HH

#include "common/types.hh"
#include "modmath/modulus.hh"
#include "modmath/primes.hh"

namespace ive::simd {

enum class Isa
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

const char *isaName(Isa isa);

// --- machine-checked datapath bounds ---------------------------------
//
// The lazy-reduction design rests on a handful of numeric bounds that
// used to live in comments. They are named constants here so every
// backend tests the same value, and static_asserts derive the bound
// proofs at compile time; the runtime halves of the same contracts are
// audited by the scalar backend under -DIVE_CHECK_RANGES=ON (see
// common/contracts.hh).

/**
 * Moduli below this engage the fused u64 MAC chain (when the chain is
 * short enough, see kernels::fusedMacOk) and the vector 32-bit
 * product paths: canonical products fit one 64-bit word, so every lane
 * product is a single vpmuludq.
 */
inline constexpr u64 kFusedMacModulusBound = u64{1} << 32;

/**
 * IFMA 52-bit datapath bound on the modulus: the 52-bit Shoup product
 * is proved for q below it, and NttTable builds x2^52 companion
 * twiddles only there. Whether the IFMA transforms run is then the
 * per-(q, n) verdict of the unreduced bounds below.
 */
inline constexpr u64 kIfmaModulusBound = u64{1} << 50;

/**
 * Largest ring degree anything in the stack admits (the wire decoder's
 * cap), as log2: the unreduced-NTT bounds below are proved there.
 */
inline constexpr int kMaxLogDegree = 20;

/**
 * Unreduced forward NTT. A Cooley-Tukey stage that skips the
 * conditional subtract on x adds the lazy Shoup product (< 2q) to it,
 * so starting from canonical input every value stays below
 * (2 log n + 1) q after log n stages. The AVX-512 entries run no
 * per-stage subtract, so they run only where this bound fits their
 * Shoup operand: 2^52 on the IFMA datapath, 2^64 for the generic
 * product. Elsewhere the IFMA entry hands over to the generic one and
 * the generic one to the scalar transform.
 */
constexpr u128
fwdUnreducedBound(u64 q, int log_n)
{
    return static_cast<u128>(2 * log_n + 1) * q;
}

/**
 * Unreduced inverse NTT. A Gentleman-Sande stage that skips the
 * subtract on x + y doubles its bound, so after log n stages values
 * stay below n q (the y side is a lazy Shoup product, below 2q).
 */
constexpr u128
invUnreducedBound(u64 q, int log_n)
{
    return static_cast<u128>(q) << log_n;
}

/** Shoup-operand limit of the IFMA butterflies (vpmadd52 inputs). */
inline constexpr u128 kIfmaOperandBound = u128{1} << 52;

/**
 * Largest gadget base the digit decomposer's vector Horner pass
 * admits: limb * q + carry with limb < 2^30 and q < 2^32 stays below
 * 2^63 (Gadget enforces logZ <= 30).
 */
inline constexpr int kDigitMaxLogZ = 30;

/** Most digits a gadget may have (Gadget enforces ell <= 64). */
inline constexpr int kMaxDigits = 64;

// Fused products of canonical residues must fit one 64-bit word.
static_assert(static_cast<u128>(kFusedMacModulusBound - 1) *
                      (kFusedMacModulusBound - 1) <=
                  ~u64{0},
              "fused-MAC products must fit 64 bits");
// The 52-bit lazy Shoup proof needs 4q inside the vpmadd52 datapath.
static_assert(static_cast<u128>(4) * (kIfmaModulusBound - 1) <
                  (u128{1} << 52),
              "IFMA Shoup products need 4q inside the 52-bit datapath");
// The shipped primes take both unreduced transforms on the IFMA
// datapath at every admitted degree (NttTable still checks each
// (q, n) at run time, for test primes).
static_assert(fwdUnreducedBound(kIvePrimes.back(), kMaxLogDegree) <
                  kIfmaOperandBound,
              "unreduced forward NTT must fit the 52-bit datapath");
static_assert(invUnreducedBound(kIvePrimes.back(), kMaxLogDegree) <
                  kIfmaOperandBound,
              "unreduced inverse NTT must fit the 52-bit datapath");
// One Horner step: limb < z, q < 2^32, carry < 2q, so
// limb * q + carry < (z + 2) * 2^32 must stay below 2^63.
static_assert((((u128{1} << kDigitMaxLogZ) + 2) << 32) < (u128{1} << 63),
              "digit Horner steps must fit 63 bits");

/** Smallest degree the AVX-512 register-blocked schedule runs. */
inline constexpr u64 kNttBlock = 64;

/** Lane-table words per block: t = 4 takes one vector, t = 2 two,
 *  t = 1 four. */
inline constexpr u64 kNttLaneWords = 56;

/**
 * Twiddle bundle a transform hands its backend: bit-reversed twiddles
 * with their x2^64 Shoup companions, plus the x2^52 companions when
 * the modulus fits the IFMA datapath (null otherwise — backends that
 * cannot use them ignore the field).
 *
 * The lane tables feed the register block's three smallest stages
 * (t = 4, 2, 1) after its 8 x 8 transpose: for each 64-coefficient
 * block c, 56 words in the order the lanes consume them (t = 4: 8,
 * t = 2: 2 x 8, t = 1: 4 x 8; see laneOrder in ntt.cc). They are
 * null when n < kNttBlock or no AVX-512 table can run. NttTable also
 * decides per (q, n) whether each AVX-512 entry may run its schedule
 * (fwd/invUnreducedBound against its datapath).
 */
struct NttTwiddles
{
    const u64 *tw = nullptr;
    const u64 *twShoup = nullptr;
    const u64 *twShoup52 = nullptr;
    const u64 *lane = nullptr;
    const u64 *laneShoup = nullptr;
    const u64 *laneShoup52 = nullptr;
    bool unreduced52 = false; ///< Unreduced bound below 2^52.
    bool unreduced64 = false; ///< Unreduced bound below 2^64.
};

/**
 * Everything the gadget digit decomposer needs about one RNS basis and
 * one gadget. The tables belong to RnsBase (built once per basis);
 * Gadget::digitPlan() hands out pointers to them, so a plan is valid
 * as long as its basis.
 *
 * The scalar reference reconstructs x with the iCRT of paper Eq. 3
 * (x = sum_i [x_i * qHatInv_i]_{q_i} * qHat_i, minus Q while >= Q) and
 * extracts its base-2^logZ digits. The vector backends use the Garner
 * mixed radix instead, x = v_0 + v_1 q_0 + v_2 q_0 q_1 + ..., in 64-bit
 * lanes: row i >= 1 of `garner` holds i + 1 constants c_i0..c_ii with
 * v_i = [x_i * c_ii + sum_{j<i} v_j * c_ij]_{q_i} (c_ii = (q_0 ...
 * q_{i-1})^-1 and c_ij = -(q_0 ... q_{j-1}) * c_ii, mod q_i), and
 * garnerShoup32 their floor(c * 2^32 / q_i) companions. Both are null
 * unless every prime is below 2^32; such bases take the scalar path.
 */
struct DigitPlan
{
    int k = 0;                      ///< Residue planes (primes).
    const Modulus *moduli = nullptr;
    const u128 *qHat = nullptr;     ///< Q / q_i.
    const u64 *qHatInv = nullptr;   ///< (Q / q_i)^-1 mod q_i.
    const u64 *qHatInvShoup = nullptr;
    u128 bigQ = 0;
    const u64 *garner = nullptr;        ///< Rows 1..k-1, packed.
    const u64 *garnerShoup32 = nullptr;
    int logZ = 0;
    int ell = 0;
};

/**
 * The dispatch table: one function pointer per hot kernel. All
 * functions take canonical inputs and produce canonical outputs
 * identical to the scalar reference; lazy NTT entries do their own
 * final canonicalization.
 */
struct Kernels
{
    Isa isa = Isa::Scalar;
    const char *name = "scalar";

    /** Forward lazy CT butterflies; canonical output. */
    void (*nttForwardLazy)(u64 *a, u64 n, const Modulus &mod,
                           const NttTwiddles &t);
    /** Inverse lazy GS butterflies, n^-1 fold, canonical output. */
    void (*nttInverseLazy)(u64 *a, u64 n, const Modulus &mod,
                           const NttTwiddles &t, u64 n_inv,
                           u64 n_inv_shoup, u64 n_inv_shoup52);

    // Element-wise canonical vector ops.
    void (*addVec)(u64 *dst, const u64 *src, u64 n, u64 q);
    void (*subVec)(u64 *dst, const u64 *src, u64 n, u64 q);
    void (*negVec)(u64 *dst, u64 n, u64 q);
    void (*mulVec)(u64 *dst, const u64 *src, u64 n, const Modulus &mod);
    /** dst[i] = dst[i] * b[i] mod q with per-element x2^64 companions. */
    void (*mulShoupVec)(u64 *dst, const u64 *b, const u64 *b_shoup,
                        u64 n, u64 q);
    /** Strict dst[i] += a[i] * b[i] mod q. */
    void (*mulAccVec)(u64 *dst, const u64 *a, const u64 *b, u64 n,
                      const Modulus &mod);

    // Fused u64 MAC chain (see poly/kernels.hh for the chain policy).
    /**
     * Two chain links that share their first operand: acc0 (+)= a o b0
     * and acc1 (+)= a o b1, with a read once. Each plane takes
     * acc[i] = a[i] * b[i] (store) or acc[i] += a[i] * b[i], raw u64
     * sums with no reduction. Inputs are below 2^32 and the caller
     * keeps each chain inside (q - 1)^2 * links + q < 2^64.
     */
    void (*macChainPair)(u64 *acc0, u64 *acc1, const u64 *a,
                         const u64 *b0, const u64 *b1, u64 n,
                         bool store0, bool store1);
    /** acc[i] = acc[i] mod q for any u64 acc[i]: the chain's one
     *  Barrett reduction. */
    void (*macChainReduce)(u64 *acc, u64 n, const Modulus &mod);

    /**
     * acc[i] += a[i] * b[i] as raw u128 sums (inputs < 2^32). No
     * serving path uses it; the benchmark's kernel.mac_gbs probe does,
     * so its signature stays.
     */
    void (*macAccumulate)(u128 *acc, const u64 *a, const u64 *b, u64 n);

    /**
     * Gadget digit decomposition of coefficients [from, to) of one
     * coefficient-domain polynomial: src holds plan.k canonical
     * residue planes, `stride` words apart; digit j of coefficient i
     * goes to slot i of every plane of dst[j] (plan.k planes, the same
     * stride), reduced mod that plane's prime. Any alignment of from
     * and to.
     */
    void (*decomposeDigits)(const DigitPlan &plan, const u64 *src,
                            u64 stride, u64 from, u64 to,
                            u64 *const *dst);

    /**
     * Prime-major automorphism / monomial permutation: for each i,
     * dst[map[i] >> 1] = (map[i] & 1) ? q - src[i] (0 stays 0)
     *                                 : src[i],
     * with map a (pos << 1 | flip) bijection on [0, n) as built by
     * RnsPoly::automorphismMap. dst must not alias src.
     */
    void (*applyCoeffMap)(u64 *dst, const u64 *src, const u64 *map,
                          u64 n, u64 q);
};

/**
 * The backend table for one ISA, or null when this CPU cannot run it
 * (or the binary was built without that TU). The avx512 table is
 * returned with its IFMA butterfly variants already patched in when
 * the CPU supports AVX-512 IFMA.
 */
const Kernels *backend(Isa isa);

/**
 * The avx512 table without the IFMA butterflies, or null when AVX-512
 * cannot run here. On IFMA CPUs backend(Isa::Avx512) hands out the
 * patched table, so differential tests reach the generic 64-bit
 * butterflies through this.
 */
const Kernels *genericAvx512();

/** Best ISA this CPU can run among the compiled-in backends. */
Isa bestSupportedIsa();

/**
 * True when the IFMA butterflies are compiled in and runnable here:
 * NttTable only spends memory on x2^52 companion twiddles when some
 * backend could actually consume them.
 */
bool ifmaButterfliesAvailable();

/**
 * The active table: resolved once on first use from bestSupportedIsa()
 * or IVE_FORCE_ISA, then immutable (safe to read from any thread).
 */
const Kernels &active();

} // namespace ive::simd

#endif // IVE_POLY_SIMD_SIMD_HH
