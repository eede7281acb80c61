#include "ot/ot_workspace.h"

#include <algorithm>

#include "common/logging.h"

namespace ironman::ot {

Block *
BlockArena::alloc(size_t n)
{
    IRONMAN_CHECK(next + n <= storage.size(), "arena overflow");
    Block *p = storage.data() + next;
    next += n;
    return p;
}

namespace {

/** The fields extension sizing depends on. */
bool
sameShape(const FerretParams &a, const FerretParams &b)
{
    return a.n == b.n && a.k == b.k && a.t == b.t &&
           a.arity == b.arity && a.prg == b.prg &&
           a.lpnWeight == b.lpnWeight && a.lpnSeed == b.lpnSeed;
}

} // namespace

size_t
OtWorkspace::requiredBlocks(const FerretParams &p, bool scatter_free)
{
    if (scatter_free && scatterFreeFeed(p))
        return p.t * p.treeLeaves();
    return p.t * p.treeLeaves() + p.n;
}

void
OtWorkspace::prepare(const FerretParams &p, int threads,
                     bool scatter_free)
{
    threads = std::max(threads, 1);
    scatter_free = scatter_free && scatterFreeFeed(p);
    if (ready && sameShape(preparedFor, p) &&
        preparedThreads == threads &&
        scatterFreeActive == scatter_free)
        return;

    pool.resize(threads);

    arena.reserve(requiredBlocks(p, scatter_free));
    leaf = arena.alloc(p.t * p.treeLeaves());
    // Scatter-free: every bucket is one whole tree (t*l >= n), so the
    // leaf matrix IS the row vector — no separate staging rows, no
    // leaf -> rows pass (invariant 11: the rows are encoded in place
    // only after the SPCOT stage that wrote them completed).
    rows = scatter_free ? leaf : arena.alloc(p.n);
    scatterFreeActive = scatter_free;

    // The SPCOT workspace sizes itself per role on the first
    // spcotSend*/spcotRecv* call (still warm-up, and it avoids
    // allocating the other role's buffer set).
    lpn.resize(threads);
    alphas.resize(p.t);

    ready = true;
    preparedFor = p;
    preparedThreads = threads;
}

} // namespace ironman::ot
