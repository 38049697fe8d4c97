/**
 * @file
 * Cache-line-aligned storage for vectorized kernels.
 *
 * The SIMD backends (poly/simd) load residue planes and MAC
 * accumulators in 64-byte blocks; AlignedAllocator guarantees every
 * pooled buffer and every RnsPoly plane starts on a cache-line
 * boundary, so full-width vector loads never straddle lines. The
 * kernels themselves use unaligned load/store instructions (tails and
 * small-degree test rings are legal), so alignment is purely a
 * performance contract — asserted in the workspace lease types, never
 * required for correctness.
 */

#ifndef IVE_COMMON_ALIGN_HH
#define IVE_COMMON_ALIGN_HH

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/types.hh"

namespace ive {

inline constexpr size_t kCacheLineBytes = 64;

template <typename T, size_t Align = kCacheLineBytes>
struct AlignedAllocator
{
    static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                  "alignment must be a power of two covering alignof(T)");

    using value_type = T;

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &)
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *
    allocate(size_t count)
    {
        // operator new rounds the size up to the alignment itself, but
        // the standard requires the request to be a multiple of it.
        size_t bytes = (count * sizeof(T) + Align - 1) / Align * Align;
        return static_cast<T *>(
            ::operator new(bytes, std::align_val_t{Align}));
    }

    void
    deallocate(T *p, size_t)
    {
        ::operator delete(p, std::align_val_t{Align});
    }

    bool
    operator==(const AlignedAllocator &) const
    {
        return true;
    }
};

/** 64-byte-aligned vectors: residue planes and scratch. */
using AlignedU64Vec = std::vector<u64, AlignedAllocator<u64>>;

/** True when p sits on a cache-line boundary (lease-type asserts). */
inline bool
isCacheAligned(const void *p)
{
    return (reinterpret_cast<uintptr_t>(p) & (kCacheLineBytes - 1)) == 0;
}

} // namespace ive

#endif // IVE_COMMON_ALIGN_HH
