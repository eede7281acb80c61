/**
 * @file
 * Microbench: the workspace FERRET engine's extendInto() (zero heap
 * allocations once warm, LPN index tape replayed) swept over 1, 2 and
 * 4 pool workers per party, showing the fixed-pool batch-SPCOT/LPN
 * scaling. Both parties run in this process, so a sweep point uses
 * up to twice its worker count in hardware threads.
 *
 * Run: ./bench_micro_workspace_reuse   (IRONMAN_BENCH_FAST=1 trims)
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"

using namespace ironman;
using namespace ironman::ot;

namespace {

struct Result
{
    double otsPerSec = 0;
    double usPerExtension = 0;
};

/** One measured configuration: @p iters extensions after one warm-up. */
Result
measure(const FerretParams &p, int threads, int iters)
{
    Rng dealer(1234);
    Block delta = dealer.nextBlock();
    auto [bs, br] = dealBaseCots(dealer, delta, p.reservedCots());

    double seconds = 0;
    net::runTwoParty(
        [&](net::Channel &ch) {
            FerretCotSender sender(ch, p, delta, std::move(bs.q));
            sender.setThreads(threads);
            Rng rng(1);
            std::vector<Block> out(p.usableOts());
            // Warm-up extension (sizes workspaces, faults pages).
            sender.extendInto(rng, out.data());
            Timer timer;
            for (int it = 0; it < iters; ++it)
                sender.extendInto(rng, out.data());
            seconds = timer.seconds();
        },
        [&](net::Channel &ch) {
            FerretCotReceiver receiver(ch, p, std::move(br.choice),
                                       std::move(br.t));
            receiver.setThreads(threads);
            Rng rng(2);
            BitVec choice;
            std::vector<Block> t(p.usableOts());
            receiver.extendInto(rng, choice, t.data());
            for (int it = 0; it < iters; ++it)
                receiver.extendInto(rng, choice, t.data());
        });

    Result r;
    r.usPerExtension = seconds * 1e6 / iters;
    r.otsPerSec = double(p.usableOts()) * iters / seconds;
    return r;
}

/** The thread sweep on one parameter set. */
void
sweep(const FerretParams &p, int iters)
{
    std::printf("%s set: n=%zu k=%zu t=%zu l=%zu, %zu usable OTs/ext\n",
                p.name.c_str(), p.n, p.k, p.t, p.treeLeaves(),
                p.usableOts());
    for (int threads : {1, 2, 4}) {
        const Result r = measure(p, threads, iters);
        std::printf("  %2d thr/party   %9.0f us/ext   %8.2f M OT/s\n",
                    threads, r.usPerExtension, r.otsPerSec / 1e6);
    }
}

} // namespace

int
main()
{
    bench::banner("micro_workspace_reuse",
                  "FERRET engine extension, 1/2/4 pool workers");
    std::printf("host: %u hardware threads\n\n",
                std::thread::hardware_concurrency());

    const bool fast = bench::fastMode();
    sweep(tinyTestParams(), fast ? 2 : 8);
    if (!fast) {
        std::printf("\n");
        sweep(paperParamSet(20), 2);
    }
    return 0;
}
