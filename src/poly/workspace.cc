#include "poly/workspace.hh"

#include <atomic>

namespace ive {

namespace {

// Process-wide counters: each thread_local workspace bumps these with
// relaxed ops; tests read the totals to pin steady-state behaviour.
// Relaxed atomics, no capability annotations by policy (see
// common/annotations.hh); the pool itself is thread_local and
// therefore lock- and annotation-free.
std::atomic<u64> g_poly_allocs{0};
std::atomic<u64> g_poly_reuses{0};
std::atomic<u64> g_buf_allocs{0};
std::atomic<u64> g_buf_reuses{0};

inline void
bump(std::atomic<u64> &c)
{
    c.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

PolyWorkspace &
PolyWorkspace::local()
{
    static thread_local PolyWorkspace ws;
    return ws;
}

PolyWorkspace::Stats
PolyWorkspace::stats()
{
    return {g_poly_allocs.load(std::memory_order_relaxed),
            g_poly_reuses.load(std::memory_order_relaxed),
            g_buf_allocs.load(std::memory_order_relaxed),
            g_buf_reuses.load(std::memory_order_relaxed)};
}

PolyWorkspace::Shelf &
PolyWorkspace::shelf(u64 n, int k)
{
    for (Shelf &s : shelves_) {
        if (s.n == n && s.k == k)
            return s;
    }
    shelves_.push_back(Shelf{n, k, {}});
    return shelves_.back();
}

RnsPoly
PolyWorkspace::takePoly(const Ring &ring, Domain domain)
{
    Shelf &s = shelf(ring.n, ring.k());
    if (!s.free.empty()) {
        RnsPoly poly = std::move(s.free.back());
        s.free.pop_back();
        poly.setDomainUnchecked(domain);
        bump(g_poly_reuses);
        return poly;
    }
    bump(g_poly_allocs);
    return RnsPoly(ring, domain);
}

void
PolyWorkspace::givePoly(RnsPoly &&poly)
{
    // A moved-from poly keeps its stale n_/k_ but an empty data_;
    // pooling it would later hand out a husk whose shape asserts pass
    // while its storage is gone. Only pool buffers whose storage
    // matches their declared shape.
    if (poly.n() == 0 ||
        poly.data_.size() !=
            static_cast<size_t>(poly.k()) * poly.n())
        return;
    shelf(poly.n(), poly.k()).free.push_back(std::move(poly));
}

std::vector<RnsPoly>
PolyWorkspace::takePolyVec(const Ring &ring, Domain domain, u64 count)
{
    std::vector<RnsPoly> polys;
    if (!freeVecs_.empty()) {
        polys = std::move(freeVecs_.back());
        freeVecs_.pop_back();
    }
    // Only a capacity-sufficient container counts as a reuse; a
    // recycled-but-too-small one still reallocates in reserve().
    if (polys.capacity() < count) {
        polys.reserve(count);
        bump(g_buf_allocs);
    } else {
        bump(g_buf_reuses);
    }
    for (u64 i = 0; i < count; ++i)
        polys.push_back(takePoly(ring, domain));
    return polys;
}

void
PolyWorkspace::givePolyVec(std::vector<RnsPoly> &&polys)
{
    for (RnsPoly &p : polys)
        givePoly(std::move(p));
    polys.clear();
    freeVecs_.push_back(std::move(polys));
}

AlignedU64Vec
PolyWorkspace::takeWords(u64 count)
{
    for (size_t i = freeWords_.size(); i-- > 0;) {
        if (freeWords_[i].capacity() >= count) {
            AlignedU64Vec buf = std::move(freeWords_[i]);
            freeWords_.erase(freeWords_.begin() +
                             static_cast<ptrdiff_t>(i));
            bump(g_buf_reuses);
            buf.resize(count);
            return buf;
        }
    }
    bump(g_buf_allocs);
    AlignedU64Vec buf(count);
    return buf;
}

void
PolyWorkspace::giveWords(AlignedU64Vec &&buf)
{
    if (buf.capacity() == 0)
        return;
    freeWords_.push_back(std::move(buf));
}

} // namespace ive
