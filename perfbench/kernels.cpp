/**
 * @file
 * The `ot` layer measured from outside: each kernel an extension runs,
 * timed through its public entry point at the workload's exact
 * parameter shape with whatever kernel the library dispatches to.
 * Cycles are TSC ticks; each figure is the median of several calls.
 */

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/crhf.h"
#include "crypto/seed_expander.h"
#include "ot/ggm_tree.h"
#include "ot/lpn.h"
#include "ot/spcot.h"
#include "perfbench.h"

namespace perfbench {

namespace {

uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return uint64_t(nowMs() * 1e6);
#endif
}

/** Median ticks of @p reps calls of @p fn. */
template <typename F>
double
medianTicks(int reps, F &&fn)
{
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
        const uint64_t c0 = ticks();
        fn();
        v.push_back(double(ticks() - c0));
    }
    return median(v);
}

} // namespace

void
measureOtKernels(const ironman::ot::FerretParams &p, int threads,
                 RunResult &out)
{
    using namespace ironman;
    using namespace ironman::ot;
    const double tps = ticksPerSecond();

    LpnParams lp;
    lp.n = p.n;
    lp.k = p.k;
    lp.d = p.lpnWeight;
    lp.seed = p.lpnSeed;
    const LpnEncoder enc(lp);
    Rng rng(8);
    const std::vector<Block> in = rng.nextBlocks(lp.k);
    std::vector<Block> rows = rng.nextBlocks(lp.n);

    // Tape build on an engine-wide pool, as an engine's prewarm does.
    common::ThreadPool pool(threads);
    std::vector<LpnEncodeScratch> scratch(size_t(std::max(threads, 1)));
    LpnIndexTape tape;
    const double build_ticks = medianTicks(3, [&] {
        tape = LpnIndexTape();
        enc.buildTape(tape, lp.n, pool, scratch.data());
    });
    out.set("ot.tape_build_ms", build_ticks / tps * 1e3, "ms");

    const double lpn_ticks = medianTicks(5, [&] {
        enc.encodeBlocksTape(in.data(), rows.data(), 0, lp.n, tape);
    });
    out.set("ot.lpn.cyc_per_row", lpn_ticks / double(lp.n), "cyc/row");
    // Computed, not measured: d taps of one 16-byte k-vector entry.
    out.set("ot.lpn.bytes_per_row", double(lp.d) * sizeof(Block),
            "B/row");

    BitVec bits_in(lp.k);
    for (size_t i = 0; i < lp.k; i += 3)
        bits_in.set(i, true);
    BitVec bits_out(lp.n);
    const double bits_ticks = medianTicks(5, [&] {
        enc.encodeBitsTape(bits_in, bits_out, tape);
    });
    out.set("ot.lpn_bits.cyc_per_row", bits_ticks / double(lp.n),
            "cyc/row");

    // The engine hands an extension's n rows on by copying them (the
    // reserve into the next base, the rest to the caller) outside any
    // phase span; the ledger charges this probe's time for it.
    {
        std::vector<Block> dst(lp.n);
        const double copy_ticks = medianTicks(5, [&] {
            std::copy(rows.begin(), rows.end(), dst.begin());
        });
        out.set("ot.copy_out_ms_per_ext", copy_ticks / tps * 1e3,
                "ms/ext");
    }

    // GGM: all t trees of one extension, level-synchronous in chunks.
    {
        const GgmSumLayout layout =
            GgmSumLayout::of(treeArities(p.treeLeaves(), p.arity));
        constexpr size_t kChunk = SpcotWorkspace::kBatchTrees;
        auto prg = crypto::makeTreeExpander(p.prg, p.arity);
        GgmBatchScratch batch_scratch;
        std::vector<Block> seeds(kChunk);
        for (size_t i = 0; i < kChunk; ++i)
            seeds[i] = Block::fromUint64(i + 1);
        std::vector<Block> leaves(kChunk * layout.leaves);
        std::vector<Block> sums(kChunk * layout.total);
        std::vector<Block> leaf_sums(kChunk);
        const double ggm_ticks = medianTicks(5, [&] {
            for (size_t tr0 = 0; tr0 < p.t; tr0 += kChunk) {
                const size_t cnt = std::min(kChunk, p.t - tr0);
                ggmExpandBatchInto(*prg, seeds.data(), cnt, layout,
                                   batch_scratch, leaves.data(),
                                   layout.leaves, sums.data(),
                                   layout.total, leaf_sums.data());
            }
        });
        out.set("ot.ggm.cyc_per_leaf",
                ggm_ticks / double(p.t * p.treeLeaves()), "cyc/leaf");
    }

    // CRHF: the sender's hash volume of one extension (two pads per
    // chosen OT plus the mini-leaf pads).
    {
        SpcotShape shape;
        shape.prepare(SpcotConfig{p.treeLeaves(), p.arity, p.prg});
        const size_t hashes =
            2 * p.t * shape.cotsPerTree + p.t * shape.sumsPerTree;
        const crypto::Crhf crhf;
        const std::vector<Block> hin = rng.nextBlocks(hashes);
        std::vector<Block> hout(hashes);
        const double crhf_ticks = medianTicks(7, [&] {
            crhf.hashBatch(hin.data(), hout.data(), hashes, 1);
        });
        out.set("ot.crhf.cyc_per_hash", crhf_ticks / double(hashes),
                "cyc/hash");
    }
}

} // namespace perfbench
