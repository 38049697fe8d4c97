/**
 * @file
 * Per-thread scratch pool for the serving hot path.
 *
 * Every expand / RowSel / external-product / fold step used to build
 * its temporaries (digit polynomials, rotated copies, difference
 * ciphertexts, partial sums) as fresh heap allocations. PolyWorkspace
 * keeps per-thread free lists of RnsPoly objects and u64 scratch
 * buffers, so a steady-state query performs zero per-op heap
 * allocations: the first query on each worker warms the pool and later
 * queries recycle it. MAC chains accumulate in their destination
 * planes (poly/kernels.hh), so there is no accumulator buffer to pool.
 *
 * The pool is thread_local (one per thread-pool worker plus the calling
 * thread), so leases never cross threads and need no locking. Leases
 * are strictly scoped scratch: anything that outlives the current task
 * (pipeline outputs, selector rows, tournament entries) still owns its
 * storage normally.
 *
 * Process-wide allocation/reuse counters let tests assert the
 * steady-state-zero-allocation property (see tests/test_kernels.cc).
 */

#ifndef IVE_POLY_WORKSPACE_HH
#define IVE_POLY_WORKSPACE_HH

#include <vector>

#include "common/align.hh"
#include "common/logging.hh"
#include "poly/poly.hh"

namespace ive {

class PolyWorkspace
{
  public:
    /** The calling thread's workspace (created on first use). */
    static PolyWorkspace &local();

    /** Process-wide pool counters, summed over all thread workspaces. */
    struct Stats
    {
        u64 polyAllocs = 0; ///< RnsPoly constructed (pool miss).
        u64 polyReuses = 0; ///< RnsPoly served from the free list.
        u64 bufAllocs = 0;  ///< Scratch buffer / container growth.
        u64 bufReuses = 0;  ///< Buffer served from the free list.
    };
    static Stats stats();

    /**
     * A pooled polynomial sized for `ring`, with the given domain tag;
     * contents are unspecified (callers overwrite or copy-assign).
     */
    RnsPoly takePoly(const Ring &ring, Domain domain);
    void givePoly(RnsPoly &&poly);

    /** Pooled container of `count` polys (see PolyVecLease). */
    std::vector<RnsPoly> takePolyVec(const Ring &ring, Domain domain,
                                     u64 count);
    void givePolyVec(std::vector<RnsPoly> &&polys);

    /** 64-byte-aligned u64 scratch of `count` elements (contents
     *  unspecified). */
    AlignedU64Vec takeWords(u64 count);
    void giveWords(AlignedU64Vec &&buf);

    /**
     * Retags a polynomial's domain without transforming data. For the
     * phase-structured parallel kernels (subsInto, externalProductInto,
     * decomposePolyInto) that convert residue planes one task at a
     * time: each plane is fully transformed inside its task, and the
     * coordinating thread flips the tag once the phase completes, so
     * tags stay truthful at every phase boundary. Never a substitute
     * for toNtt()/fromNtt().
     */
    static void
    retag(RnsPoly &poly, Domain domain)
    {
        poly.setDomainUnchecked(domain);
    }

  private:
    PolyWorkspace() = default;

    /** Free polys bucketed by shape, so mixed-ring tests cannot hand a
     *  wrong-sized buffer back to a different ring. */
    struct Shelf
    {
        u64 n = 0;
        int k = 0;
        std::vector<RnsPoly> free;
    };
    Shelf &shelf(u64 n, int k);

    std::vector<Shelf> shelves_;
    std::vector<std::vector<RnsPoly>> freeVecs_;
    std::vector<AlignedU64Vec> freeWords_;
};

/** RAII lease of one workspace polynomial. */
class PolyLease
{
  public:
    PolyLease(PolyWorkspace &ws, const Ring &ring, Domain domain)
        : ws_(&ws), poly_(ws.takePoly(ring, domain))
    {
    }
    ~PolyLease() { ws_->givePoly(std::move(poly_)); }

    PolyLease(const PolyLease &) = delete;
    PolyLease &operator=(const PolyLease &) = delete;

    RnsPoly &operator*() { return poly_; }
    RnsPoly *operator->() { return &poly_; }

  private:
    PolyWorkspace *ws_;
    RnsPoly poly_;
};

/** RAII lease of `count` workspace polynomials (gadget digits). */
class PolyVecLease
{
  public:
    PolyVecLease(PolyWorkspace &ws, const Ring &ring, Domain domain,
                 u64 count)
        : ws_(&ws), polys_(ws.takePolyVec(ring, domain, count))
    {
    }
    ~PolyVecLease() { ws_->givePolyVec(std::move(polys_)); }

    PolyVecLease(const PolyVecLease &) = delete;
    PolyVecLease &operator=(const PolyVecLease &) = delete;

    std::vector<RnsPoly> &operator*() { return polys_; }
    RnsPoly &operator[](size_t i) { return polys_[i]; }

  private:
    PolyWorkspace *ws_;
    std::vector<RnsPoly> polys_;
};

/** RAII lease of cache-line-aligned u64 scratch. */
class WordLease
{
  public:
    WordLease(PolyWorkspace &ws, u64 count)
        : ws_(&ws), buf_(ws.takeWords(count))
    {
        ive_assert(isCacheAligned(buf_.data()),
                   "workspace scratch lost cache-line alignment");
    }
    ~WordLease() { ws_->giveWords(std::move(buf_)); }

    WordLease(const WordLease &) = delete;
    WordLease &operator=(const WordLease &) = delete;

    u64 *data() { return buf_.data(); }
    std::span<u64> span() { return {buf_.data(), buf_.size()}; }

  private:
    PolyWorkspace *ws_;
    AlignedU64Vec buf_;
};

} // namespace ive

#endif // IVE_POLY_WORKSPACE_HH
