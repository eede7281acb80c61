/**
 * @file
 * Engine lifetime coverage, run under ASan+UBSan in CI (the ROADMAP
 * watch item: one unreproduced heap-buffer-overflow read once seen in
 * SpcotWorkspace teardown). Across both LPN feeds (copying and
 * scatter-free) and worker-pool widths:
 *
 *  - destroying a FerretCotSender/Receiver pair right after 1..3
 *    extensions;
 *  - destroying engines that never ran an extension;
 *  - resetSession() mid-session, then verifying the rebound engines
 *    are bit-identical to freshly constructed ones — state of the
 *    previous session must not leak into the next.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/channel.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"
#include "svc/wire.h"

namespace ironman::ot {
namespace {

struct SessionHalves
{
    CotSenderBatch senderBase;
    CotReceiverBatch receiverBase;
    Block delta;
};

SessionHalves
deal(const FerretParams &p, uint64_t seed)
{
    SessionHalves h;
    svc::dealSessionBase(p, seed, &h.senderBase, &h.receiverBase,
                         &h.delta);
    return h;
}

/** Reference outputs of a fresh engine pair over @p iters extensions. */
void
runFresh(const FerretParams &p, uint64_t seed, int iters, int threads,
         std::vector<Block> *q, BitVec *choice, std::vector<Block> *t)
{
    SessionHalves h = deal(p, seed);
    const size_t usable = p.usableOts();
    q->assign(size_t(iters) * usable, Block{});
    t->assign(size_t(iters) * usable, Block{});
    *choice = BitVec();

    net::MemoryDuplex duplex;
    std::thread sender_thread([&] {
        FerretCotSender sender(duplex.a(), p, h.delta,
                               std::move(h.senderBase.q));
        sender.setThreads(threads);
        Rng rng(svc::senderRngSeed(seed));
        for (int it = 0; it < iters; ++it)
            sender.extendInto(rng, q->data() + size_t(it) * usable);
    });
    FerretCotReceiver receiver(duplex.b(), p,
                               std::move(h.receiverBase.choice),
                               std::move(h.receiverBase.t));
    receiver.setThreads(threads);
    Rng rng(svc::receiverRngSeed(seed));
    BitVec c;
    for (int it = 0; it < iters; ++it) {
        receiver.extendInto(rng, c, t->data() + size_t(it) * usable);
        choice->appendRange(c, 0, c.size());
    }
    sender_thread.join();
}

TEST(EngineTeardownTest, DestroyAfterExtensions)
{
    for (const FerretParams &p :
         {tinyTestParams(), tinyAlignedParams()}) {
        for (int iters : {1, 2, 3}) {
            for (int threads : {1, 3}) {
                std::vector<Block> q, t;
                BitVec choice;
                runFresh(p, 0xdead0 + iters, iters, threads, &q,
                         &choice, &t);
                // Sanity: the outputs produced right before teardown
                // still correlate.
                SessionHalves h = deal(p, 0xdead0 + iters);
                for (size_t i = 0; i < q.size(); ++i)
                    ASSERT_EQ(t[i],
                              q[i] ^ scalarMul(choice.get(i), h.delta))
                        << p.name << " iters " << iters << " threads "
                        << threads << " index " << i;
            }
        }
    }
}

TEST(EngineTeardownTest, DestroyWithoutRunning)
{
    for (const FerretParams &p :
         {tinyTestParams(), tinyAlignedParams()}) {
        for (int threads : {1, 3}) {
            SessionHalves h = deal(p, 31337);
            net::MemoryDuplex duplex;
            {
                FerretCotSender sender(duplex.a(), p, h.delta,
                                       std::move(h.senderBase.q));
                FerretCotReceiver receiver(
                    duplex.b(), p, std::move(h.receiverBase.choice),
                    std::move(h.receiverBase.t));
                sender.setThreads(threads);
                receiver.setThreads(threads);
                // Construction only; destroyed with no extension run.
            }
            {
                // The unbound (pool) constructor + prewarm, never bound.
                FerretCotSender sender(p);
                FerretCotReceiver receiver(p);
                sender.setThreads(threads);
                receiver.setThreads(threads);
                sender.prewarm();
                receiver.prewarm();
            }
        }
    }
}

/**
 * Run @p iters_a extensions of session A, rebind both engines to
 * session B with resetSession(), run @p iters_b extensions of B, and
 * return B's outputs.
 */
void
runResetMidSession(const FerretParams &p, int threads, int iters_a,
                   uint64_t seed_a, uint64_t seed_b, int iters_b,
                   std::vector<Block> *q, BitVec *choice,
                   std::vector<Block> *t)
{
    const size_t usable = p.usableOts();
    SessionHalves ha = deal(p, seed_a);
    SessionHalves hb = deal(p, seed_b);
    q->assign(size_t(iters_b) * usable, Block{});
    t->assign(size_t(iters_b) * usable, Block{});
    *choice = BitVec();

    net::MemoryDuplex duplex_a, duplex_b;
    std::thread sender_thread([&] {
        FerretCotSender sender(duplex_a.a(), p, ha.delta,
                               std::move(ha.senderBase.q));
        sender.setThreads(threads);
        Rng rng_a(svc::senderRngSeed(seed_a));
        std::vector<Block> scratch(usable);
        for (int it = 0; it < iters_a; ++it)
            sender.extendInto(rng_a, scratch.data());
        sender.resetSession(duplex_b.a(), hb.delta,
                            hb.senderBase.q.data(),
                            hb.senderBase.q.size());
        Rng rng_b(svc::senderRngSeed(seed_b));
        for (int it = 0; it < iters_b; ++it)
            sender.extendInto(rng_b, q->data() + size_t(it) * usable);
    });

    FerretCotReceiver receiver(duplex_a.b(), p,
                               std::move(ha.receiverBase.choice),
                               std::move(ha.receiverBase.t));
    receiver.setThreads(threads);
    Rng rng_a(svc::receiverRngSeed(seed_a));
    BitVec c;
    std::vector<Block> scratch(usable);
    for (int it = 0; it < iters_a; ++it)
        receiver.extendInto(rng_a, c, scratch.data());
    receiver.resetSession(duplex_b.b(), hb.receiverBase.choice,
                          hb.receiverBase.t.data(),
                          hb.receiverBase.t.size());
    Rng rng_b(svc::receiverRngSeed(seed_b));
    for (int it = 0; it < iters_b; ++it) {
        receiver.extendInto(rng_b, c, t->data() + size_t(it) * usable);
        choice->appendRange(c, 0, c.size());
    }
    sender_thread.join();
}

TEST(EngineTeardownTest, MidSessionResetMatchesFreshEngine)
{
    const uint64_t seed_a = 41001, seed_b = 41002;
    constexpr int kItersB = 2;
    for (const FerretParams &p :
         {tinyTestParams(), tinyAlignedParams()}) {
        for (int threads : {1, 3}) {
            // What a FRESH pair produces for session B: the rebound
            // engines must match bit for bit.
            std::vector<Block> want_q, want_t;
            BitVec want_choice;
            runFresh(p, seed_b, kItersB, threads, &want_q, &want_choice,
                     &want_t);

            for (int iters_a : {1, 2}) {
                SCOPED_TRACE(::testing::Message()
                             << p.name << " threads " << threads
                             << " iters_a " << iters_a);
                std::vector<Block> q, t;
                BitVec choice;
                runResetMidSession(p, threads, iters_a, seed_a, seed_b,
                                   kItersB, &q, &choice, &t);
                EXPECT_EQ(q, want_q);
                EXPECT_EQ(choice, want_choice);
                EXPECT_EQ(t, want_t);
            }
        }
    }
}

} // namespace
} // namespace ironman::ot
