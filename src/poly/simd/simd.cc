/**
 * @file
 * Backend detection and one-time dispatch resolution.
 *
 * Feature detection uses __builtin_cpu_supports, which reads cpuid
 * leaves once at program start *and* checks OS XSAVE state (XCR0), so
 * "avx512f" is only reported when the kernel actually saves zmm
 * registers. The resolved table is a function-local static: immutable
 * after first use, so concurrent readers need no synchronization.
 */

#include "poly/simd/backends.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ive::simd {

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Avx2:
        return "avx2";
    case Isa::Avx512:
        return "avx512";
    }
    return "unknown";
}

namespace {

bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

bool
cpuHasAvx512()
{
#if defined(__x86_64__) || defined(__i386__)
    // F for the 512-bit integer core, DQ for vpmullq, VL because the
    // TU is compiled with -mavx512vl and its 128/256-bit twiddle loads
    // may take EVEX-VL encodings: the runtime gate must cover every
    // flag the compiler was allowed to use.
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl");
#else
    return false;
#endif
}

bool
cpuHasAvx512Ifma()
{
#if defined(__x86_64__) || defined(__i386__)
    return cpuHasAvx512() && __builtin_cpu_supports("avx512ifma");
#else
    return false;
#endif
}

#ifdef IVE_SIMD_HAVE_AVX512
/**
 * The avx512 table, with the vpmadd52 butterflies patched in when the
 * CPU has IFMA. Backends are const tables; the patched copy is built
 * once here so backend(Avx512) and active() hand out the same thing.
 */
const Kernels &
avx512Table()
{
    static const Kernels table = [] {
        Kernels k = kAvx512Kernels;
#ifdef IVE_SIMD_HAVE_AVX512IFMA
        if (cpuHasAvx512Ifma()) {
            k.name = "avx512-ifma";
            k.nttForwardLazy = &ifma::nttForwardLazy;
            k.nttInverseLazy = &ifma::nttInverseLazy;
        }
#endif
        return k;
    }();
    return table;
}
#endif

const Kernels *
resolve(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return &kScalarKernels;
    case Isa::Avx2:
#ifdef IVE_SIMD_HAVE_AVX2
        if (cpuHasAvx2())
            return &kAvx2Kernels;
#endif
        return nullptr;
    case Isa::Avx512:
#ifdef IVE_SIMD_HAVE_AVX512
        if (cpuHasAvx512())
            return &avx512Table();
#endif
        return nullptr;
    }
    return nullptr;
}

const Kernels &
resolveActive()
{
    const char *force = std::getenv("IVE_FORCE_ISA");
    if (force != nullptr && force[0] != '\0') {
        Isa want;
        if (std::strcmp(force, "scalar") == 0) {
            want = Isa::Scalar;
        } else if (std::strcmp(force, "avx2") == 0) {
            want = Isa::Avx2;
        } else if (std::strcmp(force, "avx512") == 0) {
            want = Isa::Avx512;
        } else {
            std::fprintf(stderr,
                         "ive: IVE_FORCE_ISA=%s is not one of "
                         "scalar|avx2|avx512\n",
                         force);
            std::abort();
        }
        const Kernels *k = resolve(want);
        if (k == nullptr) {
            // Falling back silently would let a CI matrix "pass" the
            // avx512 leg on a machine that never ran it.
            std::fprintf(stderr,
                         "ive: IVE_FORCE_ISA=%s requested but this "
                         "CPU/build cannot run it\n",
                         force);
            std::abort();
        }
        return *k;
    }
    return *resolve(bestSupportedIsa());
}

} // namespace

const Kernels *
backend(Isa isa)
{
    return resolve(isa);
}

const Kernels *
genericAvx512()
{
#ifdef IVE_SIMD_HAVE_AVX512
    if (cpuHasAvx512())
        return &kAvx512Kernels;
#endif
    return nullptr;
}

bool
ifmaButterfliesAvailable()
{
#ifdef IVE_SIMD_HAVE_AVX512IFMA
    return cpuHasAvx512Ifma();
#else
    return false;
#endif
}

Isa
bestSupportedIsa()
{
    if (resolve(Isa::Avx512) != nullptr)
        return Isa::Avx512;
    if (resolve(Isa::Avx2) != nullptr)
        return Isa::Avx2;
    return Isa::Scalar;
}

const Kernels &
active()
{
    static const Kernels &table = resolveActive();
    return table;
}

} // namespace ive::simd
