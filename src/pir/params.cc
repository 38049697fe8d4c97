#include "pir/params.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.hh"
#include "modmath/primes.hh"
#include "poly/simd/simd.hh"

namespace ive {

namespace {

[[noreturn]] void
reject(const std::string &what)
{
    throw std::invalid_argument("PirParams: " + what);
}

} // namespace

void
PirParams::validate() const
{
    // Scalar ranges first: every later check (and usedLeaves(),
    // numEntries(), the 2n below) stays far from overflow once these
    // hold, so hostile values cannot reach an assert or a wrap.
    const u64 n = he.n;
    if (!isPow2(n) || n < 4 || n > (u64{1} << simd::kMaxLogDegree))
        reject(strprintf("ring degree %llu must be a power of two in "
                         "[4, 2^%d]",
                         static_cast<unsigned long long>(n),
                         simd::kMaxLogDegree));
    if (!isPow2(he.plainModulus) || he.plainModulus < 2)
        reject(strprintf("plaintext modulus %llu must be a power of two "
                         ">= 2",
                         static_cast<unsigned long long>(he.plainModulus)));
    // Gadget: the digit decomposer's base and length limits.
    auto checkGadget = [](const char *name, int log_z, int ell) {
        if (log_z < 1 || log_z > simd::kDigitMaxLogZ)
            reject(strprintf("%s gadget base 2^%d outside [2^1, 2^%d]",
                             name, log_z, simd::kDigitMaxLogZ));
        if (ell < 1 || ell > simd::kMaxDigits)
            reject(strprintf("%s gadget length %d outside [1, %d]", name,
                             ell, simd::kMaxDigits));
    };
    checkGadget("key-switching", he.logZKs, he.ellKs);
    checkGadget("RGSW", he.logZRgsw, he.ellRgsw);
    if (!isPow2(d0))
        reject(strprintf("D0 = %llu must be a power of two",
                         static_cast<unsigned long long>(d0)));
    if (d < 0 || d > 40)
        reject(strprintf("dimension count d = %d outside [0, 40]", d));
    if (planes < 1 || planes > (1 << 20))
        reject(strprintf("plane count %d outside [1, 2^20]", planes));
    if (usedLeaves() > n)
        reject(strprintf("query does not fit one ring element: D0 + d*l "
                         "= %llu > N = %llu",
                         static_cast<unsigned long long>(usedLeaves()),
                         static_cast<unsigned long long>(n)));

    // Primes: Modulus needs q < kMaxModulus (checked before isPrime,
    // which builds one), RnsBase distinct primes, NttTable 2n | q - 1.
    std::vector<u64> primes = he.primes;
    if (primes.empty())
        primes = {kIvePrimes.begin(), kIvePrimes.end()};
    double log_q = 0.0;
    for (size_t i = 0; i < primes.size(); ++i) {
        const u64 q = primes[i];
        if (q < 2 || q >= kMaxModulus || !isPrime(q))
            reject(strprintf("modulus %llu is not a prime below 2^62",
                             static_cast<unsigned long long>(q)));
        if (q % (2 * n) != 1)
            reject(strprintf("prime %llu is not NTT-friendly for n = %llu",
                             static_cast<unsigned long long>(q),
                             static_cast<unsigned long long>(n)));
        if (std::find(primes.begin(), primes.begin() + i, q) !=
            primes.begin() + i)
            reject(strprintf("duplicate prime %llu",
                             static_cast<unsigned long long>(q)));
        log_q += std::log2(static_cast<double>(q));
    }
    // The same expressions RnsBase, HeContext and Gadget assert, so the
    // boundaries agree bit for bit.
    if (log_q + std::log2(static_cast<double>(primes.size())) >= 127.0)
        reject("modulus chain exceeds 128-bit headroom");
    if (log_q <= std::log2(static_cast<double>(he.plainModulus)) + 20)
        reject("plaintext modulus leaves no noise room under Q");
    if (static_cast<double>(he.logZKs) * he.ellKs < log_q)
        reject("key-switching gadget does not cover Q");
    if (static_cast<double>(he.logZRgsw) * he.ellRgsw < log_q)
        reject("RGSW gadget does not cover Q");
}

PirParams
PirParams::functionalDefault()
{
    PirParams p;
    p.he.n = 4096;
    p.he.plainModulus = u64{1} << 32;
    p.he.logZKs = 13;
    p.he.ellKs = 9;
    p.he.logZRgsw = 14;
    p.he.ellRgsw = 8;
    p.d0 = 256;
    p.d = 8;
    return p;
}

PirParams
PirParams::testSmall()
{
    PirParams p;
    p.he.n = 1024;
    p.he.plainModulus = u64{1} << 32;
    p.he.logZKs = 13;
    p.he.ellKs = 9;
    p.he.logZRgsw = 14;
    p.he.ellRgsw = 8;
    p.d0 = 16;
    p.d = 2;
    return p;
}

PirParams
PirParams::paperPerf(u64 db_bytes, u64 d0)
{
    PirParams p;
    p.he.n = 4096;
    p.he.plainModulus = u64{1} << 32;
    p.he.logZKs = 22;
    p.he.ellKs = 5;
    p.he.logZRgsw = 22;
    p.he.ellRgsw = 5;
    p.d0 = d0;
    u64 entries = divCeil(db_bytes, p.bytesPerPlaintext());
    u64 folded = divCeil(entries, d0);
    p.d = log2Ceil(folded == 0 ? 1 : folded);
    return p;
}

PirParams
PirParams::forDbSize(u64 db_bytes, u64 d0)
{
    PirParams p = functionalDefault();
    p.d0 = d0;
    u64 entries = divCeil(db_bytes, p.bytesPerPlaintext());
    u64 folded = divCeil(entries, d0);
    p.d = log2Ceil(folded == 0 ? 1 : folded);
    return p;
}

} // namespace ive
